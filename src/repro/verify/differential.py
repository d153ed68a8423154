"""Differential-testing engine for equivalent-implementation pairs.

The paper's whole argument is that *paired* implementations agree while
one is faster — convolution vs transpose-FFT filtering (Tables 8-11),
the three physics load-balancing schemes (Tables 1-3), the old vs new
AGCM (Tables 4-7).  This module is the machinery that keeps every such
pair honest: it drives a reference and a candidate implementation over
seeded randomized configurations, compares outputs with tolerance-aware
deep comparison, and — on a mismatch — *shrinks* the failing
configuration to a minimal counterexample before reporting it.

The registered pairs themselves live in :mod:`repro.verify.pairs`; this
module only knows the abstract shape:

* an :class:`ImplementationPair` owns a :class:`ParamSpace` of integer
  parameters, and two callables ``(config, rng) -> output``.  Both
  callables receive *independent generators seeded identically*, so a
  pair can draw random input data and be certain both sides see the same
  stream;
* :func:`check_pair` samples configurations, runs both sides, and
  reports the first failure as a :class:`Counterexample` carrying the
  shrunken (minimal) configuration;
* shrinking is greedy: for each parameter it tries the lower bound, the
  midpoint and one step down, re-running the pair each time, until no
  simpler configuration still fails — the classic QuickCheck loop.

Run the full registry from the command line::

    python -m repro.verify.differential              # all pairs
    python -m repro.verify.differential --pairs collective-allgather-ring
    python -m repro.verify.differential --mutation-smoke   # self-check
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.verify import tolerances

#: Default number of sampled configurations per pair.
DEFAULT_NCONFIGS = 5
#: Default root seed for configuration sampling.
DEFAULT_SEED = 19960101  # the paper's year


Config = Dict[str, int]


# ----------------------------------------------------------------------
# parameter spaces
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ParamSpace:
    """Integer-box parameter space with an optional validity constraint.

    ``bounds[name] = (low, high)`` are inclusive integer bounds.  The
    optional ``constraint`` rejects combinations (e.g. a processor mesh
    larger than the grid); sampling rejects until it passes.
    """

    bounds: Mapping[str, Tuple[int, int]]
    constraint: Optional[Callable[[Config], bool]] = None

    def __post_init__(self) -> None:
        for name, (lo, hi) in self.bounds.items():
            if lo > hi:
                raise ValueError(f"param {name!r}: low {lo} > high {hi}")

    def is_valid(self, config: Config) -> bool:
        """True when ``config`` lies in bounds and passes the constraint."""
        for name, (lo, hi) in self.bounds.items():
            if not lo <= config[name] <= hi:
                return False
        return self.constraint is None or bool(self.constraint(config))

    def sample(self, rng: np.random.Generator, max_tries: int = 1000) -> Config:
        """Draw one valid configuration (rejection sampling)."""
        for _ in range(max_tries):
            config = {
                name: int(rng.integers(lo, hi + 1))
                for name, (lo, hi) in self.bounds.items()
            }
            if self.constraint is None or self.constraint(config):
                return config
        raise RuntimeError(
            f"could not sample a valid config in {max_tries} tries; "
            "the constraint is too restrictive for the bounds"
        )

    def shrink_candidates(self, config: Config) -> Iterator[Config]:
        """Simpler configurations to try, most aggressive first.

        For each parameter (in declaration order): jump to the lower
        bound, bisect toward it, then step down by one.  Only valid,
        strictly different configurations are yielded.
        """
        seen = set()
        for name, (lo, _hi) in self.bounds.items():
            cur = config[name]
            for cand_value in (lo, (lo + cur) // 2, cur - 1):
                if cand_value >= cur or cand_value < lo:
                    continue
                cand = dict(config)
                cand[name] = cand_value
                key = tuple(sorted(cand.items()))
                if key in seen:
                    continue
                seen.add(key)
                if self.is_valid(cand):
                    yield cand


# ----------------------------------------------------------------------
# pairs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ImplementationPair:
    """A reference/candidate implementation pair under differential test.

    ``reference`` and ``candidate`` are called as ``fn(config, rng)``
    where both ``rng`` instances are seeded identically per case, so
    random *input data* drawn inside the callables is shared while the
    implementations stay independent.
    """

    name: str
    space: ParamSpace
    reference: Callable[[Config, np.random.Generator], Any]
    candidate: Callable[[Config, np.random.Generator], Any]
    atol: float = tolerances.DIFF_ATOL
    rtol: float = tolerances.DIFF_RTOL
    description: str = ""


# ----------------------------------------------------------------------
# tolerance-aware deep comparison
# ----------------------------------------------------------------------

def compare_outputs(
    ref: Any, cand: Any, atol: float, rtol: float, path: str = "output"
) -> Optional[str]:
    """Deep-compare two outputs; return a mismatch description or None.

    Dicts, sequences, arrays and scalars are compared structurally;
    numeric leaves use ``abs(c - r) <= atol + rtol * abs(r)`` elementwise
    (numpy ``allclose`` semantics, NaNs never equal).
    """
    if isinstance(ref, Mapping) or isinstance(cand, Mapping):
        if not (isinstance(ref, Mapping) and isinstance(cand, Mapping)):
            return f"{path}: type mismatch {type(ref).__name__} vs {type(cand).__name__}"
        if set(ref) != set(cand):
            return (
                f"{path}: key sets differ "
                f"(only-ref={sorted(set(ref) - set(cand))}, "
                f"only-cand={sorted(set(cand) - set(ref))})"
            )
        for key in sorted(ref, key=repr):
            detail = compare_outputs(
                ref[key], cand[key], atol, rtol, f"{path}[{key!r}]"
            )
            if detail is not None:
                return detail
        return None

    if isinstance(ref, (list, tuple)) or isinstance(cand, (list, tuple)):
        if not (isinstance(ref, (list, tuple)) and isinstance(cand, (list, tuple))):
            return f"{path}: type mismatch {type(ref).__name__} vs {type(cand).__name__}"
        if len(ref) != len(cand):
            return f"{path}: length {len(ref)} vs {len(cand)}"
        for i, (r, c) in enumerate(zip(ref, cand)):
            detail = compare_outputs(r, c, atol, rtol, f"{path}[{i}]")
            if detail is not None:
                return detail
        return None

    if ref is None or cand is None:
        return None if ref is cand else f"{path}: {ref!r} vs {cand!r}"

    if isinstance(ref, (bool, np.bool_)) or isinstance(cand, (bool, np.bool_)):
        return None if bool(ref) == bool(cand) else f"{path}: {ref!r} vs {cand!r}"

    if isinstance(ref, str) or isinstance(cand, str):
        return None if ref == cand else f"{path}: {ref!r} vs {cand!r}"

    ra = np.asarray(ref)
    ca = np.asarray(cand)
    if ra.shape != ca.shape:
        return f"{path}: shape {ra.shape} vs {ca.shape}"
    if ra.size == 0:
        return None
    if not (np.issubdtype(ra.dtype, np.number) and np.issubdtype(ca.dtype, np.number)):
        if np.array_equal(ra, ca):
            return None
        return f"{path}: non-numeric arrays differ"
    with np.errstate(invalid="ignore"):
        ok = np.isclose(ca, ra, atol=atol, rtol=rtol, equal_nan=False)
    if bool(ok.all()):
        return None
    bad = np.argwhere(~ok)
    idx = tuple(int(v) for v in bad[0])
    # NaN differences print as inf rather than tripping all-NaN warnings
    err = np.nan_to_num(
        np.abs(ca.astype(complex) - ra.astype(complex)), nan=np.inf
    )
    return (
        f"{path}: {int((~ok).sum())}/{ok.size} elements differ "
        f"(max |err| = {float(np.max(err)):.3e} at {idx}; "
        f"ref={np.ravel(ra)[np.ravel_multi_index(idx, ra.shape) if idx else 0]!r}, "
        f"cand={np.ravel(ca)[np.ravel_multi_index(idx, ca.shape) if idx else 0]!r})"
        if idx
        else f"{path}: scalar mismatch ref={ref!r} cand={cand!r} "
        f"(|err| = {float(np.max(err)):.3e})"
    )


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------

@dataclass
class Counterexample:
    """A minimal failing configuration for one pair."""

    pair_name: str
    config: Config
    case_seed: int
    detail: str
    shrink_steps: int
    original_config: Config

    def __str__(self) -> str:
        lines = [
            f"MINIMAL COUNTEREXAMPLE for pair {self.pair_name!r}:",
            f"  config     = {self.config}",
            f"  case_seed  = {self.case_seed}",
            f"  mismatch   = {self.detail}",
            f"  (shrunk from {self.original_config} in "
            f"{self.shrink_steps} step{'s' if self.shrink_steps != 1 else ''})",
            f"  reproduce: run_case(pair_by_name({self.pair_name!r}), "
            f"{self.config}, case_seed={self.case_seed})",
        ]
        return "\n".join(lines)


@dataclass
class PairReport:
    """Outcome of checking one pair over several configurations."""

    pair_name: str
    cases_run: int
    counterexample: Optional[Counterexample] = None
    configs: List[Config] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    def __str__(self) -> str:
        if self.ok:
            return f"PASS {self.pair_name}: {self.cases_run} configs agree"
        return f"FAIL {self.pair_name}:\n{self.counterexample}"


class DifferentialFailure(AssertionError):
    """Raised by :func:`assert_pair` when a pair disagrees."""

    def __init__(self, counterexample: Counterexample):
        super().__init__(str(counterexample))
        self.counterexample = counterexample


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------

def case_seed_for(root_seed: int, pair_name: str, index: int) -> int:
    """Deterministic per-case seed mixing the root seed, pair and index.

    Uses CRC32 (not ``hash``, which is salted per process) so a failing
    seed printed by CI reproduces locally.
    """
    mixed = zlib.crc32(f"{pair_name}:{index}".encode()) & 0xFFFFFFFF
    return (int(root_seed) * 0x9E3779B1 + mixed) % (2**63)


def run_case(
    pair: ImplementationPair, config: Config, case_seed: int
) -> Optional[str]:
    """Run one configuration through both sides; return mismatch or None.

    An exception raised by either side counts as a mismatch (with the
    exception text as the detail) so shrinking also minimizes crashes.
    """
    try:
        ref = pair.reference(config, np.random.default_rng(case_seed))
    except Exception as exc:  # noqa: BLE001 - report, don't mask
        return f"reference raised {type(exc).__name__}: {exc}"
    try:
        cand = pair.candidate(config, np.random.default_rng(case_seed))
    except Exception as exc:  # noqa: BLE001
        return f"candidate raised {type(exc).__name__}: {exc}"
    return compare_outputs(ref, cand, pair.atol, pair.rtol)


def shrink_config(
    pair: ImplementationPair,
    config: Config,
    case_seed: int,
    max_steps: int = 200,
) -> Tuple[Config, str, int]:
    """Greedily minimize a failing configuration.

    Repeatedly moves to the first simpler configuration that still fails,
    until none does (or the step budget runs out).  Returns the minimal
    config, its mismatch detail, and the number of successful shrink
    steps taken.
    """
    detail = run_case(pair, config, case_seed)
    if detail is None:
        raise ValueError("shrink_config called with a passing configuration")
    steps = 0
    while steps < max_steps:
        for cand in pair.space.shrink_candidates(config):
            cand_detail = run_case(pair, cand, case_seed)
            if cand_detail is not None:
                config, detail = cand, cand_detail
                steps += 1
                break
        else:
            break  # no simpler config fails: minimal
    return config, detail, steps


def check_pair(
    pair: ImplementationPair,
    nconfigs: int = DEFAULT_NCONFIGS,
    seed: int = DEFAULT_SEED,
    shrink: bool = True,
) -> PairReport:
    """Drive one pair over ``nconfigs`` seeded random configurations."""
    report = PairReport(pair_name=pair.name, cases_run=0)
    for i in range(nconfigs):
        case_seed = case_seed_for(seed, pair.name, i)
        config_rng = np.random.default_rng(case_seed ^ 0x5DEECE66D)
        config = pair.space.sample(config_rng)
        report.configs.append(config)
        detail = run_case(pair, config, case_seed)
        report.cases_run += 1
        if detail is not None:
            original = dict(config)
            steps = 0
            if shrink:
                config, detail, steps = shrink_config(pair, config, case_seed)
            report.counterexample = Counterexample(
                pair_name=pair.name,
                config=config,
                case_seed=case_seed,
                detail=detail,
                shrink_steps=steps,
                original_config=original,
            )
            return report
    return report


def assert_pair(
    pair: ImplementationPair,
    nconfigs: int = DEFAULT_NCONFIGS,
    seed: int = DEFAULT_SEED,
) -> PairReport:
    """``check_pair`` that raises :class:`DifferentialFailure` on mismatch."""
    report = check_pair(pair, nconfigs=nconfigs, seed=seed)
    if not report.ok:
        raise DifferentialFailure(report.counterexample)
    return report


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI driver; returns a process exit code."""
    from repro.util.cli import StrictParser
    from repro.verify import pairs as pairs_mod

    parser = StrictParser(
        "verify.differential", prog="python -m repro.verify.differential",
        description="Run the differential verification suite.",
    )
    parser.add_argument(
        "--pairs", default=None,
        help="comma-separated pair names (default: the full registry)",
    )
    parser.add_argument("--configs", type=int, default=DEFAULT_NCONFIGS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--list", action="store_true", help="list registered pairs and exit"
    )
    parser.add_argument(
        "--mutation-smoke", action="store_true",
        help="self-check: verify the engine catches a deliberately "
        "broken pair and prints its minimal counterexample",
    )
    args = parser.parse_args(argv)

    if args.list:
        for pair in pairs_mod.default_pairs():
            print(f"{pair.name:40s} {pair.description}")
        return 0

    if args.mutation_smoke:
        broken = pairs_mod.mutated_filter_pair()
        report = check_pair(broken, nconfigs=max(args.configs, 5), seed=args.seed)
        if report.ok:
            print(
                "MUTATION SMOKE FAILED: the engine did not catch the "
                f"deliberately broken pair {broken.name!r}"
            )
            return 1
        print("mutation smoke OK — the engine caught the broken pair:")
        print(report.counterexample)
        return 0

    selected = pairs_mod.default_pairs()
    if args.pairs:
        wanted = {name.strip() for name in args.pairs.split(",") if name.strip()}
        known = {p.name for p in selected}
        unknown = wanted - known
        if unknown:
            print(f"unknown pair(s): {sorted(unknown)}; known: {sorted(known)}")
            return 2
        selected = [p for p in selected if p.name in wanted]

    failures = 0
    for pair in selected:
        report = check_pair(pair, nconfigs=args.configs, seed=args.seed)
        print(report)
        if not report.ok:
            failures += 1
    print(
        f"\n{len(selected) - failures}/{len(selected)} pairs agree "
        f"({args.configs} configs each, seed {args.seed})"
    )
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
