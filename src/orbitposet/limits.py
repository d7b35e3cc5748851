"""Feasibility guards for exhaustive scans.

All-pairs scans grow quadratically in the involution count (764 elements at
n=8 already), and single-pass scans stay cheap up to n=10.  ``intersect``
answers comparable pairs and irreducible meets at every n, for what ``leq``
and ``meet`` cost (0.8 ms for a pair of maximal orbits at n = 100), and
guards only the search of a reducible meet: at n=14 with seven 2-cycles that
search took 0.26-1.6 s on random pairs of maximal orbits (4 of 8 pairs
needed it; shared 2-vCPU host, Python 3.11), so its guard stays at n=12.  A
guard is lifted only per call: ``max_n=...`` in the API, ``--max-n`` on the
CLI.  An override replaces the default, so it can lower a guard too.

``RS_WITNESS_MAX_CANDIDATES`` caps the tableaux ``find_rs_witness`` may scan.
A miss scans every tableau of the shape, at 6-35 us each (the more
second-column entries, and the longer the two words agree, the more each
costs), so a miss at the cap takes 0.3-1.8 s.  Measured on a shared 2-vCPU
host, Python 3.11: first against last tableau took 6-9 us per candidate at
k = 2 (n = 16-30), 12-14 at k = 5 and 22 at n = 20, k = 10 (16 796
candidates, 0.37 s); codimension-one partners without a witness took 24-35
us, so 115 101 candidates at n = 30, k = 5 took 3.1-3.4 s.  It is lifted per
call (``max_candidates=...``, ``--max-candidates``).

``CACHE_SIZE`` bounds the ``rank_matrix`` and ``dimension`` caches above the
oracle's working set (1 115 involutions to n = 8) and ``hasse`` at n = 10 (9 496).
"""

from .errors import TooLarge

ALL_PAIRS_MAX_N = 8
SINGLE_PASS_MAX_N = 10
INTERSECT_MAX_N = 12
RS_WITNESS_MAX_CANDIDATES = 50_000

CACHE_SIZE = 16_384


def check_guard(
    size: int, default_cap: int, override: int | None = None, unit: str = "points", option: str = "max_n"
) -> None:
    """Raise :class:`TooLarge`, the only code that does, when ``size`` (in ``unit``)
    is above ``override``, or ``default_cap`` without one; ``option`` names the
    override, and the message names its CLI flag too."""
    cap = default_cap if override is None else override
    if size > cap:
        flag = "--" + option.replace("_", "-")
        raise TooLarge(f"{size} {unit} exceed the feasibility guard {cap}; pass a larger {option} ({flag})")
