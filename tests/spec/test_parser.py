"""Spec-syntax parser tests, including Table 1 as an executable table."""

import pytest

from repro.spec import (
    DEPTYPE_BUILD,
    DEPTYPE_LINK_RUN,
    SpecParseError,
    Version,
    parse,
    parse_one,
)


class TestTable1:
    """Each row of the paper's Table 1, verified."""

    def test_at_requires_version(self):
        spec = parse_one("hdf5@1.14.5")
        assert spec.name == "hdf5"
        assert spec.versions.contains(Version("1.14.5"))

    def test_plus_requires_variant(self):
        spec = parse_one("hdf5+cxx")
        assert spec.variants["cxx"] == "True"

    def test_tilde_disables_variant(self):
        spec = parse_one("hdf5~mpi")
        assert spec.variants["mpi"] == "False"

    def test_caret_is_link_run_dependency(self):
        spec = parse_one("hdf5 ^zlib")
        edge = spec.dependency_edge("zlib")
        assert edge is not None and DEPTYPE_LINK_RUN in edge.deptypes

    def test_percent_is_build_dependency(self):
        spec = parse_one("hdf5%clang")
        edge = spec.dependency_edge("clang")
        assert edge is not None and edge.deptypes == frozenset([DEPTYPE_BUILD])

    def test_target_key_value(self):
        spec = parse_one("hdf5 target=icelake")
        assert spec.target == "icelake"

    def test_variant_key_value(self):
        spec = parse_one("hdf5 api=default")
        assert spec.variants["api"] == "default"


class TestParserFeatures:
    def test_version_ranges(self):
        spec = parse_one("x@1.2:1.6")
        assert spec.versions.contains(Version("1.4"))

    def test_version_disjunction(self):
        spec = parse_one("x@1.2,2.0:")
        assert spec.versions.contains(Version("2.5"))
        assert not spec.versions.contains(Version("1.5"))

    def test_exact_version(self):
        spec = parse_one("x@=1.5")
        assert spec.versions.concrete == Version("1.5")

    def test_arch_triplet(self):
        spec = parse_one("x arch=linux-centos8-skylake")
        assert spec.os == "centos8" and spec.target == "skylake"

    def test_arch_pair(self):
        spec = parse_one("x arch=centos8-skylake")
        assert spec.os == "centos8" and spec.target == "skylake"

    def test_os_key(self):
        assert parse_one("x os=ubuntu22").os == "ubuntu22"

    def test_multiple_dependencies_attach_to_root(self):
        spec = parse_one("a ^b ^c@2")
        assert spec.dependency_edge("b") is not None
        assert spec.dependency_edge("c") is not None

    def test_dependency_attributes_bind_to_dependency(self):
        spec = parse_one("a@1 ^b@2+opt")
        assert spec.versions.contains(Version("1.0"))
        dep = spec.dependency_edge("b").spec
        assert dep.versions.contains(Version("2.1"))
        assert dep.variants["opt"] == "True"

    def test_anonymous_constraint_spec(self):
        spec = parse_one("@1.2 +shared")
        assert spec.name is None
        assert spec.variants["shared"] == "True"

    def test_multiple_specs(self):
        specs = parse("a@1 b@2")
        assert [s.name for s in specs] == ["a", "b"]

    def test_whitespace_tolerance(self):
        spec = parse_one("hdf5 @1.14  +cxx   ^zlib")
        assert spec.variants["cxx"] == "True"

    def test_combined_everything(self):
        spec = parse_one(
            "example@1.0.0 +bzip arch=linux-centos8-skylake "
            "^bzip2@1.0.8 ~debug+pic+shared ^zlib@1.2.11 ^mpich@3.1 pmi=pmix"
        )
        assert spec.name == "example"
        assert spec.dependency_edge("mpich").spec.variants["pmi"] == "pmix"

    def test_repeated_version_constrains(self):
        spec = parse_one("x@1:3@2:4")
        assert spec.versions.contains(Version("2.5"))
        assert not spec.versions.contains(Version("1.5"))


class TestParserErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",  # nothing
            "^",  # dependency without name
            "a ^",  # trailing dependency sigil
            "a @1:3@4:5",  # contradictory versions
            "@@@",
            "zlib@",  # empty version clause
            "zlib@@",
            "zlib @ +shared",
            "hdf5 ^zlib@",
            "zlib@1.2@",
            "a ^a",  # self-dependency
            "a %a",
            "a+0",  # invalid variant name
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(SpecParseError):
            parse_one(bad)

    @pytest.mark.parametrize("text", ["zlib@:", "zlib@ :", "zlib@=1.2"])
    def test_explicit_version_clauses_still_parse(self, text):
        assert parse_one(text).name == "zlib"

    def test_two_specs_is_not_one(self):
        with pytest.raises(SpecParseError):
            parse_one("a b")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "hdf5@1.14.5+cxx~mpi",
            "hdf5 pmi=pmix",
            "a@1.2:1.6 ^b@2",
            "x@=1.5",
            "zlib/abc12",
            "/abc12",
            "zlib namespace=local",
        ],
    )
    def test_parse_format_parse(self, text):
        first = parse_one(text)
        again = parse_one(first.format())
        assert first.format() == again.format()

    @pytest.mark.parametrize(
        "text", ["x os=centos8 target=skylake", "x os=a-b target=c", "x target=zen-2"]
    )
    def test_architecture_round_trips(self, text):
        first = parse_one(text)
        again = parse_one(first.format(show_arch=True))
        assert (again.os, again.target) == (first.os, first.target)
