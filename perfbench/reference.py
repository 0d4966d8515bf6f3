"""A fixed pure-Python reference kernel: the benchmark's yardstick for
host speed.

On a shared host the CPU speed available to one process swings by up to
2.5x over minutes, and every wall time of the program swings with it.
The kernel below does the same work on every call and in every version
of the program, in two parts like the program's own time:

* watched-literal unit propagation over a fixed random 3-SAT instance
  of a few megabytes, the dict, list and small-int work of the
  program's solver;
* a walk of dependent loads over a freshly written 16 MB table, for the
  cache misses of the program's working set of tens of megabytes.

Either part alone misjudged the program: interleaved with the same
splice solve for ten minutes, the propagation part swung about 1.4
times as much as the solve when the host's speed changed, and the walk
about as much; together, one third of the time in propagation, they
followed the solves and the installs most closely.  Everything the
kernel allocates is freed when it returns.

Timed between the benchmark's operations, the kernel reads the host's
speed at that moment; an operation's wall time divided by the kernel's
measures the program's cost in a unit that stays put when the host
slows down.  The kernel imports nothing from the program, so no change
to the program changes it.
"""

from __future__ import annotations

import mmap
import random
import time
from typing import Dict, List, Tuple

VARIABLES = 3000
CLAUSES = 12600
#: decisions per call, in a fixed pseudo-random order
DECISIONS = 600
#: 4-byte entries of the walked table (16 MB)
TABLE = 1 << 22
#: written over the table in pieces, so its pages are real, not the
#: kernel's shared zero page
ZEROS = bytes(1 << 20)
#: loads per walk; each address depends on the value loaded before it
STEPS = 400_000
#: (propagations, conflicts, end of the walk) of one call; other values
#: mean the kernel no longer does the same work and its times would not
#: compare
CHECKSUM = (14039, 98, 627840)


def _instance() -> Tuple[List[Tuple[int, int, int]], List[int]]:
    rng = random.Random(20240601)
    clauses = []
    for _ in range(CLAUSES):
        chosen = rng.sample(range(1, VARIABLES + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    chosen = rng.sample(range(1, VARIABLES + 1), DECISIONS)
    return clauses, [v if rng.random() < 0.5 else -v for v in chosen]


CLAUSE_LIST, DECISION_ORDER = _instance()


def propagate() -> Tuple[int, int]:
    """Decide literals in order with unit propagation; on a conflict,
    drop the assignment and go on.  Returns (propagations, conflicts)."""
    clauses = [list(clause) for clause in CLAUSE_LIST]
    watches: Dict[int, List[int]] = {}
    for index, clause in enumerate(clauses):
        watches.setdefault(-clause[0], []).append(index)
        watches.setdefault(-clause[1], []).append(index)
    value: Dict[int, bool] = {}
    propagations = conflicts = 0
    for decision in DECISION_ORDER:
        if abs(decision) in value:
            continue
        trail = [decision]
        value[abs(decision)] = decision > 0
        head = 0
        conflict = False
        while head < len(trail) and not conflict:
            literal = trail[head]
            head += 1
            watching = watches.get(literal, [])
            keep = []
            for position, index in enumerate(watching):
                clause = clauses[index]
                if clause[0] == -literal:
                    clause[0], clause[1] = clause[1], clause[0]
                other = clause[0]
                if value.get(abs(other)) == (other > 0):
                    keep.append(index)
                    continue
                for slot in range(2, len(clause)):
                    candidate = clause[slot]
                    if value.get(abs(candidate)) != (candidate < 0):
                        clause[1], clause[slot] = candidate, clause[1]
                        watches.setdefault(-candidate, []).append(index)
                        break
                else:
                    keep.append(index)
                    assigned = value.get(abs(other))
                    if assigned is None:
                        value[abs(other)] = other > 0
                        trail.append(other)
                        propagations += 1
                    else:
                        conflict = True
                        keep.extend(watching[position + 1:])
                        break
            watches[literal] = keep
        if conflict:
            conflicts += 1
            for literal in trail:
                del value[abs(literal)]
    return propagations, conflicts


def walk() -> int:
    """Load STEPS entries of a zeroed table at addresses of a full-period
    linear congruential sequence; each loaded value is added into the
    next address, so every load waits for the one before it.  The table
    is its own anonymous mapping, unmapped on return: a heap block of
    this size would stay resident and count in the operations' memory."""
    memory = mmap.mmap(-1, 4 * TABLE)
    try:
        for _ in range(4 * TABLE // len(ZEROS)):
            memory.write(ZEROS)
        table = memoryview(memory).cast("i")
        mask = TABLE - 1
        address = 0
        for _ in range(STEPS):
            address = (address * 1664525 + 1013904223 + table[address]) & mask
        table.release()
    finally:
        memory.close()
    return address


def timed_kernel() -> float:
    """Seconds of one call of the kernel; raises if it did other work."""
    start = time.perf_counter()
    counts = propagate() + (walk(),)
    seconds = time.perf_counter() - start
    if counts != CHECKSUM:
        raise RuntimeError(f"reference kernel counted {counts}, expected {CHECKSUM}")
    return seconds
