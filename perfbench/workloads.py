"""The benchmark workloads: inputs, the timed operation, the oracle.

Every input is built from the public generators with pinned arguments;
the seed drives public-cache generation and request order only.  Each
concretization uses a fresh :class:`Concretizer`, like a fresh
``repro spec`` process, with the ground-program cache and incremental
grounding pinned off.
"""

from __future__ import annotations

import json
import random
import shutil
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.buildcache import BuildCache, SigningKey, TrustStore
from repro.buildcache.generate import greedy_concretize, vary_configurations
from repro.concretize import Concretizer
from repro.installer import Installer
from repro.obs import metrics
from repro.repos.radiuss import RADIUSS_ROOTS, add_mpiabi_replicas, make_radiuss_repo
from repro.spec import DEPTYPE_LINK_RUN, Spec

from mirror import MemoryBackend

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

#: the Figure 5 roots
FIG5_ROOTS = [
    "raja", "umpire", "chai", "caliper", "py-shroud", "zfp",
    "hypre", "mfem", "conduit", "sundials", "axom", "visit",
]
#: the Figure 7 MPI roots; py-shroud rides along as the no-MPI control
FIG7_MPI_ROOTS = ["hypre", "sundials", "conduit", "mfem", "axom", "glvis", "visit"]
FIG7_CONTROL = "py-shroud"
#: the cached stacks are built against this mpich (the splice target)
SPLICE_TARGET = "mpich@3.4.3"
#: variant configurations of the local stack
LOCAL_VARIATIONS = [
    {},
    {("hdf5", "cxx"): "True", ("raja", "openmp"): "False"},
    {("conduit", "hdf5"): "False", ("mfem", "zlib"): "False"},
]
PUBLIC_CONFIGURATIONS = 300
#: mpich:openmpi:mvapich2 = 2:1:1
PUBLIC_PROVIDERS = [{"mpi": "mpich"}, {"mpi": "mpich"}, {"mpi": "openmpi"}, {"mpi": "mvapich2"}]
REPLICAS = 100
#: publish+install iterations in one pass of install_splice_stack
ITERATIONS_PER_PASS = 4

#: counters that must repeat exactly for the same request and seed
EXACT_SOLVE_STATS = [
    "ground_rules", "atoms", "sat_decisions", "sat_conflicts", "models_seen", "loop_formulas",
]


class Outcome:
    """What one timed operation returned, plus its step timings."""

    def __init__(self, value, steps: Optional[Dict[str, float]] = None):
        self.value = value
        self.steps = steps or {}


def local_stack(repo) -> List[Spec]:
    """The RADIUSS roots in each local variant configuration, built
    against the splice target and deduplicated by DAG hash."""
    version = SPLICE_TARGET.split("@")[1]
    specs: List[Spec] = []
    seen = set()
    for variants in LOCAL_VARIATIONS:
        for root in RADIUSS_ROOTS:
            spec = greedy_concretize(
                repo, root, versions={"mpich": version}, variants=variants,
                include_build_deps=False,
            )
            if spec.dag_hash() not in seen:
                seen.add(spec.dag_hash())
                specs.append(spec)
    return specs


def runtime_nodes(spec: Spec) -> List[Spec]:
    return list(spec.traverse(deptype=DEPTYPE_LINK_RUN))


class SolveWorkload:
    """Closed loop of single-root concretizations against a fixed cache."""

    name = ""
    roots: List[str] = []
    forbidden: Tuple[str, ...] = ()
    splicing = False

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.repo = None
        self.cache: Sequence[Spec] = ()

    def ordered_requests(self) -> List[Tuple[str, Tuple[str, ...]]]:
        order = [(root, self.forbidden) for root in self.roots]
        random.Random(self.seed).shuffle(order)
        return order

    def warmup_request(self):
        return (FIG7_CONTROL, self.forbidden)

    def prepare(self, request) -> None:
        pass

    def run(self, request) -> Outcome:
        root, forbidden = request
        concretizer = Concretizer(
            self.repo, reusable_specs=self.cache, splicing=self.splicing,
            incremental=False,
        )
        if concretizer.ground_cache is not None:
            raise RuntimeError("a ground-program cache is enabled; timings would be cache hits")
        return Outcome(concretizer.solve([root], forbidden=list(forbidden)))

    def key(self, request):
        """Requests with the same key must give identical answers."""
        return request

    def fingerprint(self, request, outcome: Outcome):
        result = outcome.value
        return (
            tuple(spec.dag_hash() for spec in result.roots),
            tuple((key, result.stats[key]) for key in EXACT_SOLVE_STATS),
        )

    def check(self, request, outcome: Outcome) -> List[str]:
        raise NotImplementedError


class ReusePublic(SolveWorkload):
    """Fig. 5 roots, hash_attr reuse, splicing off, public cache.

    Runnable with ``--workload reuse_public`` but not listed in
    BENCHMARK.json: with a third listed workload the repeated runs of
    the benchmark no longer fit its time budget on a shared two-core
    host whose CPU speed swings by up to 1.8x.
    """

    name = "reuse_public"
    roots = FIG5_ROOTS

    def setup(self) -> None:
        self.repo = make_radiuss_repo()
        public = vary_configurations(
            self.repo, RADIUSS_ROOTS, count=PUBLIC_CONFIGURATIONS, seed=self.seed,
            providers=PUBLIC_PROVIDERS,
        )
        self.cache = public + local_stack(self.repo)

    def check(self, request, outcome):
        expected = EXPECTED[self.name]
        result = outcome.value
        built = sorted(spec.name for spec in result.built)
        problems = []
        if result.roots[0].name != request[0]:
            problems.append(f"{request[0]}: solved root is {result.roots[0].name}")
        if built != expected["built"]:
            problems.append(f"{request[0]}: built {built}, expected {expected['built']}")
        return problems


class SpliceReplicas(SolveWorkload):
    """Fig. 7 top point: 100 MPIABI replicas, mpich forbidden, splicing on."""

    name = "splice_replicas"
    roots = FIG7_MPI_ROOTS + [FIG7_CONTROL]
    forbidden = ("mpich",)
    splicing = True

    def setup(self) -> None:
        self.repo = make_radiuss_repo()
        add_mpiabi_replicas(self.repo, REPLICAS)
        self.cache = local_stack(self.repo)

    def check(self, request, outcome):
        root = request[0]
        result = outcome.value
        expected = EXPECTED[self.name]
        built = sorted(spec.name for spec in result.built)
        spliced = result.spliced
        problems = []
        if root in expected["controls"]:
            control = expected["controls"][root]
            if built != control["built"]:
                problems.append(f"{root}: built {built}, expected {control['built']}")
            if len(spliced) != control["spliced"]:
                problems.append(f"{root}: spliced {len(spliced)} nodes, expected {control['spliced']}")
            return problems
        rule = expected["mpi_roots"]
        if built != rule["built"]:
            problems.append(f"{root}: built {built}, expected {rule['built']}")
        if len(spliced) < rule["min_spliced"]:
            problems.append(f"{root}: spliced {len(spliced)} nodes, expected >= {rule['min_spliced']}")
        present = {node.name for node in runtime_nodes(result.roots[0])}
        for name in rule["absent_from_runtime_dag"]:
            if name in present:
                problems.append(f"{root}: {name} is still in the runtime DAG")
        if rule["spliced_nodes_have_build_spec"]:
            for node in spliced:
                if node.build_spec is None:
                    problems.append(f"{root}: spliced {node.name} has no build_spec provenance")
        return problems


class InstallSpliceStack:
    """Publish the source-built stack to an empty signed cache, then
    install the spliced environment from it into an empty store and
    verify it.  The cache is an in-memory mirror (:mod:`mirror`); the
    source and target stores are on disk."""

    name = "install_splice_stack"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        # the same paths in every iteration, so payload bytes (which
        # embed install prefixes) repeat exactly within a checkout
        self.workdir = workdir
        self.source_store = workdir / "source-store"
        self.store_dir = workdir / "spliced-store"
        self.signing_key = SigningKey("perfbench", f"perfbench-secret-{seed}")

    def setup(self) -> None:
        shutil.rmtree(self.source_store, ignore_errors=True)
        self.repo = make_radiuss_repo()
        env = Concretizer(self.repo, incremental=False).solve_all(
            list(RADIUSS_ROOTS) + [SPLICE_TARGET]
        )
        source = Installer(self.source_store, self.repo)
        source.install_all(env.roots)
        spliced = Concretizer(
            self.repo, reusable_specs=env.roots, splicing=True, incremental=False,
        ).solve_all(list(RADIUSS_ROOTS) + ["mpiabi"])
        rng = random.Random(self.seed)
        self.source = source
        self.push_order = list(env.roots)
        rng.shuffle(self.push_order)
        self.spliced_roots = list(spliced.roots)
        rng.shuffle(self.spliced_roots)
        self.expected_rewired, self.expected_extracted = self._expected_paths()
        self.path_bytes = self._work_path_bytes()

    def _work_path_bytes(self) -> int:
        """Bytes that copies of the work directory's absolute path add to
        one publish step (push_to_cache pushes every non-external node of
        each root, shared dependencies again); subtracted from the pushed
        bytes so the count does not depend on where the checkout lives."""
        path = str(self.workdir).encode()
        per_prefix: Dict[str, int] = {}
        total = 0
        for root in self.push_order:
            for node in root.traverse(order="post"):
                if node.external:
                    continue
                prefix = self.source.database.prefix_of(node)
                if prefix not in per_prefix:
                    per_prefix[prefix] = sum(
                        file.read_bytes().count(path)
                        for file in Path(prefix).rglob("*") if file.is_file()
                    )
                total += per_prefix[prefix]
        return total * len(path)

    def _expected_paths(self) -> Tuple[List[str], List[str]]:
        """Rewired = nodes whose link-run closure contains the mpi
        provider; extracted = every other node except the build."""
        providers = set(self.repo.providers("mpi"))
        nodes: Dict[str, Spec] = {}
        for root in self.spliced_roots:
            for node in root.traverse():
                nodes[node.dag_hash()] = node
        built = set(EXPECTED[self.name]["built"])
        rewired, extracted = [], []
        for node in nodes.values():
            if node.name in built:
                continue
            closure = {dep.name for dep in runtime_nodes(node)} - {node.name}
            if closure & providers:
                rewired.append(node.name)
            else:
                extracted.append(node.name)
        return sorted(rewired), sorted(extracted)

    def ordered_requests(self):
        return [f"iteration-{i}" for i in range(ITERATIONS_PER_PASS)]

    def warmup_request(self):
        return "warmup"

    def key(self, request):
        return "publish-install"

    def prepare(self, request) -> None:
        shutil.rmtree(self.store_dir, ignore_errors=True)

    def run(self, request) -> Outcome:
        pushed_before = metrics.counter("buildcache.pushed_bytes").value
        start = time.perf_counter()
        mirror = MemoryBackend()
        cache = BuildCache(backend=mirror, signing_key=self.signing_key)
        for root in self.push_order:
            self.source.push_to_cache(cache, root)
        pushed = time.perf_counter()
        trust = TrustStore()
        trust.trust(self.signing_key)
        reader = BuildCache(backend=mirror, trust=trust)
        installer = Installer(self.store_dir, self.repo, caches=[reader])
        report = installer.install_all(self.spliced_roots)
        issues = installer.verify()
        done = time.perf_counter()
        pushed_bytes = (
            metrics.counter("buildcache.pushed_bytes").value - pushed_before - self.path_bytes
        )
        return Outcome(
            (report, issues, pushed_bytes, installer),
            {"push_s": pushed - start, "install_s": done - pushed},
        )

    def fingerprint(self, request, outcome):
        report, issues, pushed_bytes, installer = outcome.value
        return (
            tuple(sorted(r.spec.dag_hash() for r in installer.database.query())),
            (
                ("pushed_bytes", pushed_bytes),
                ("built", len(report.built)),
                ("rewired", len(report.rewired)),
                ("extracted", len(report.extracted)),
            ),
        )

    def check(self, request, outcome):
        report, issues, pushed_bytes, installer = outcome.value
        expected = EXPECTED[self.name]
        problems = []
        if sorted(report.built) != expected["built"]:
            problems.append(f"built {sorted(report.built)}, expected {expected['built']}")
        if sorted(report.rewired) != self.expected_rewired:
            problems.append(f"rewired {sorted(report.rewired)}, expected {self.expected_rewired}")
        if sorted(report.extracted) != self.expected_extracted:
            problems.append(
                f"extracted {sorted(report.extracted)}, expected {self.expected_extracted}"
            )
        if len(issues) != expected["verify_issues"]:
            problems.append(f"verify reported {sorted(issues)}")
        return problems


WORKLOADS = {cls.name: cls for cls in (ReusePublic, SpliceReplicas, InstallSpliceStack)}
