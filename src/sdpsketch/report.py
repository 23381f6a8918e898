"""Run reports: line-oriented, byte-deterministic records of a run.

A report starts with `sdpsketch-report 2` and ends with `end`.  Floats
are printed with %.17g so every value round-trips bit-exactly; all
indices (rounds, constraints, matrix rows) are 1-based on disk and
0-based in memory, with the conversion confined to render/parse.
The run's scalar lines follow one table in a fixed order, which render
and parse both read; an optional line whose field is unset is left out.
Counts and 1-based indices (dimension, constraints, rounds, iterations,
violation rounds and constraints, sketch-p, calls, tau, p, rank) are at
least 1, the seed at least 0, and a violation's round and constraint at
most the run's rounds and constraints.

A feasible run's witness is dumped in its succinct form: the summands
of the exponent its basis was sketched from (so the sampling stores can
be re-joined from the manifest), the distinct sampled rows with their
probabilities and counts (which sum to p, at least 1), the singular
values, the left vectors on the distinct rows, and the compressed-matrix
eigensystem; nothing in it grows with p.  Its lines follow a second table, and
`parse` reads them only after `witness gibbs`; after `witness none` or
`witness uniform` only `end` may follow.
Rebuilding from those bytes reproduces the witness exactly, so entry
queries against a reloaded report match the original run bit for bit.
A gibbs report parses without its `manifest-sha256` line, but the CLI's
`entry` needs that digest to check the manifest it rebuilds from.

Timing lines are opt-in: two runs of the same command with the same
seed produce identical bytes unless timings were requested.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ManifestError
from .gibbs import GibbsDescription, make_gibbs
from .sketch import BasisSketch, MatrixSum
from .solver import SolverConfig
from .spectral import SpectralSurrogate
from .store import read_text

VERSION = 2
HEADER = f"sdpsketch-report {VERSION}"


def fmt(x: float) -> str:
    """Shortest decimal that round-trips a float (17 significant digits)."""
    return format(float(x), ".17g")


@dataclass
class WitnessDump:
    """Everything needed to rebuild a candidate solution bit-exactly."""

    kind: str  # "uniform" or "gibbs"
    beta: float = 0.0
    exponent: list[int] = field(default_factory=list)  # 0-based constraint indices
    rows: Optional[np.ndarray] = None  # distinct, increasing
    row_probs: Optional[np.ndarray] = None
    counts: Optional[np.ndarray] = None  # summing to p
    sigma: Optional[np.ndarray] = None
    left: Optional[np.ndarray] = None  # distinct rows x r_tilde
    core_d: Optional[np.ndarray] = None
    core_u: Optional[np.ndarray] = None  # r_tilde x r_tilde


@dataclass
class RunReport:
    """In-memory form of a report; indices 0-based."""

    command: str
    dimension: int
    seed: int
    epsilon: float
    rounds: int
    constraints: int
    verdict: str = "infeasible"
    iterations: int = 0
    beta_scale: float = SolverConfig.beta_scale
    delta_total: float = SolverConfig.delta_total
    preset: str = "scaled"
    sketch_p: Optional[int] = None
    sketch_gamma: Optional[float] = None
    violations: list[tuple[int, int, float]] = field(default_factory=list)
    manifest_sha: Optional[str] = None
    value: Optional[float] = None
    calls: Optional[int] = None
    estimates: list[float] = field(default_factory=list)
    timings: list[tuple[str, float]] = field(default_factory=list)
    witness: Optional[WitnessDump] = None


def dump_witness(g: GibbsDescription, exponent: list[int]) -> WitnessDump:
    """Capture a candidate's succinct description for serialization.

    ``exponent`` lists the constraints, with repeats, that the
    candidate's basis was sketched from (`FeasibilityOutcome.exponent`).
    """
    if g.uniform_fallback:
        return WitnessDump(kind="uniform", beta=g.beta)
    basis = g.basis
    return WitnessDump(
        kind="gibbs",
        beta=g.beta,
        exponent=list(exponent),
        rows=basis.rows.copy(),
        row_probs=basis.row_probs.copy(),
        counts=basis.counts.copy(),
        sigma=basis.singular_values.copy(),
        left=basis.left_vectors.copy(),
        core_d=g.surrogate.d.copy(),
        core_u=g.surrogate.u.copy(),
    )


def rebuild_witness(dump: WitnessDump, constraints: list, n: int) -> GibbsDescription:
    """Reconstruct the candidate from a dump plus the original stores.

    The stores must come from the same matrix files the run used; the
    report's manifest digest is the caller's handle for checking that.
    """
    if dump.kind == "uniform":
        return GibbsDescription.uniform(n)
    for j in dump.exponent:
        if not 0 <= j < len(constraints):
            raise ManifestError(
                f"witness exponent names constraint {j + 1}, past the "
                f"{len(constraints)} of the manifest"
            )
    summands = [constraints[j] for j in dump.exponent]
    if not summands:
        raise ManifestError("gibbs witness with an empty exponent list")
    if summands[0].n != n:
        raise ManifestError(
            f"manifest dimension {summands[0].n} does not match the report's dimension {n}"
        )
    ms = MatrixSum(summands, rank=max(s.rank_hint for s in summands))
    basis = BasisSketch(ms, dump.rows, dump.row_probs, dump.counts, dump.sigma, dump.left)
    surrogate = SpectralSurrogate(u=dump.core_u, d=dump.core_d, basis=basis)
    return make_gibbs(basis, surrogate, dump.beta)


def render(report: RunReport) -> str:
    """Serialize a report; output bytes are a pure function of the fields."""
    lines = [HEADER, *_scalar_lines(report, _HEAD)]
    for t, j, zeta in report.violations:
        lines.append(f"violation {t} {j + 1} {fmt(zeta)}")
    lines += _scalar_lines(report, _TAIL)
    for k, est in enumerate(report.estimates, start=1):
        lines.append(f"estimate {k} {fmt(est)}")
    for name, seconds in report.timings:
        lines.append(f"timing {name} {fmt(seconds)}")
    w = report.witness
    lines.append(f"witness {'none' if w is None else w.kind}")
    if w is not None and w.kind == "gibbs":
        for key, out, _, _ in _WITNESS:
            lines += [f"{key} {' '.join(values)}" for values in out(w)]
    lines.append("end")
    return "\n".join(lines) + "\n"


def _check(ok, lineno: int, rule: str) -> None:
    """Reject the report, naming its line, unless ``ok``."""
    if not ok:
        raise ManifestError(f"report line {lineno}: {rule}")


def _float_tok(token: str, lineno: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise ManifestError(f"report line {lineno}: bad float {token!r}") from None


def _int_tok(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ManifestError(f"report line {lineno}: bad integer {token!r}") from None


def _at_least(name: str, low: int = 1):
    """Integer parser for a value that must be at least ``low``: 1 for a
    count or 1-based index."""

    def tok(token: str, lineno: int) -> int:
        value = _int_tok(token, lineno)
        _check(value >= low, lineno, f"{name} must be at least {low}")
        return value

    return tok


def _str_tok(token: str, lineno: int) -> str:
    return token


# The run's scalar lines in report order, as (key, RunReport field, token
# parser, printer): `render` writes a line for each field that is not
# None, `parse` reads each key at most once and hands `RunReport` the
# fields present.  The violation lines fall between _HEAD and _TAIL.
_HEAD = (
    ("command", "command", _str_tok, str),
    ("dimension", "dimension", _at_least("dimension"), str),
    ("manifest-sha256", "manifest_sha", _str_tok, str),
    ("seed", "seed", _at_least("seed", 0), str),
    ("epsilon", "epsilon", _float_tok, fmt),
    ("constraints", "constraints", _at_least("constraints"), str),
    ("rounds", "rounds", _at_least("rounds"), str),
    ("beta-scale", "beta_scale", _float_tok, fmt),
    ("delta-total", "delta_total", _float_tok, fmt),
    ("preset", "preset", _str_tok, str),
    ("sketch-p", "sketch_p", _at_least("sketch-p"), str),
    ("sketch-gamma", "sketch_gamma", _float_tok, fmt),
    ("verdict", "verdict", _str_tok, str),
    ("iterations", "iterations", _at_least("iterations"), str),
)
_TAIL = (
    ("value", "value", _float_tok, fmt),
    ("calls", "calls", _at_least("calls"), str),
)
_RUN = {key: (name, tok) for key, name, tok, _ in _HEAD + _TAIL}
_VIOLATION = (_at_least("violation round"), _at_least("violation constraint"), _float_tok)


def _scalar_lines(report: RunReport, table) -> list[str]:
    """One line per field of ``table`` that ``report`` sets, in table order."""
    return [
        f"{key} {out(value)}"
        for key, name, _, out in table
        if (value := getattr(report, name)) is not None
    ]


def _columns(matrix: np.ndarray) -> list[list[str]]:
    """One line's values per column: its 1-based index, then its entries' real
    and imaginary parts."""
    return [
        [str(k), *(f"{fmt(z.real)} {fmt(z.imag)}" for z in col)]
        for k, col in enumerate(matrix.T, start=1)
    ]


_FINITE = (lambda v: np.all(np.isfinite(v)), "must be finite")
_POSITIVE = (lambda v: np.all((v > 0.0) & (v < np.inf)), "must be positive and finite")
_AT_LEAST_ONE = (lambda v: np.all(v >= 1), "must be at least 1")

# The gibbs witness's lines in report order, as (key, printer, token
# parser, rule).  The printer gives a dump's values as one list of
# strings per line: `left` and `core-u` print one line per column, whose
# index `parse` reads before the complex values.  `_SINGLE` lines hold
# one value.  A rule is a test of a line's parsed values and what it
# asks of them; a line that fails it is named.  `render` writes these
# lines after `witness gibbs`, `parse` reads them only there, and the
# checks across lines are `_gibbs_dump`'s.
_WITNESS = (
    ("beta", lambda w: [[fmt(w.beta)]], _float_tok,
     (lambda v: 0.0 <= v < np.inf, "must be nonnegative and finite")),
    ("tau", lambda w: [[str(len(w.exponent))]], _int_tok, _AT_LEAST_ONE),
    ("exponent", lambda w: [[str(j + 1) for j in w.exponent]], _int_tok,
     (lambda v: np.all(v >= 1), "entries must be at least 1")),
    ("p", lambda w: [[str(int(w.counts.sum()))]], _int_tok, _AT_LEAST_ONE),
    ("rank", lambda w: [[str(w.left.shape[1])]], _int_tok, _AT_LEAST_ONE),
    ("rows", lambda w: [map(str, w.rows + 1)], _int_tok,
     (lambda v: np.all(np.diff(v) > 0), "must be strictly increasing")),
    ("row-probs", lambda w: [map(fmt, w.row_probs)], _float_tok, _POSITIVE),
    ("counts", lambda w: [map(str, w.counts)], _int_tok,
     (lambda v: np.all(v >= 1), "must be positive")),
    ("sigma", lambda w: [map(fmt, w.sigma)], _float_tok, _POSITIVE),
    ("left", lambda w: _columns(w.left), _float_tok, _FINITE),
    ("core-d", lambda w: [map(fmt, w.core_d)], _float_tok, _FINITE),
    ("core-u", lambda w: _columns(w.core_u), _float_tok, _FINITE),
)
_WITNESS_ROW = {row[0]: row for row in _WITNESS}
_SINGLE = ("beta", "tau", "p", "rank")
_COLUMNS = ("left", "core-u")


def _witness_line(tokens: list[str], lineno: int) -> tuple[str, object]:
    """A gibbs witness line's name (``left 2`` for column 2) and its checked values."""
    key, values = tokens[0], tokens[1:]
    _, _, tok, (ok, must) = _WITNESS_ROW[key]
    name = key
    if key in _COLUMNS:
        _check(values, lineno, f"{key} takes an index")
        name, values = f"{key} {_int_tok(values[0], lineno)}", values[1:]
        _check(len(values) % 2 == 0, lineno, "odd number of components")
    if key in _SINGLE:
        _check(len(values) == 1, lineno, f"{key} takes one value")
        parsed = tok(values[0], lineno)
    else:
        parsed = np.array([tok(t, lineno) for t in values])
    if key in _COLUMNS:
        parsed = parsed[0::2] + 1j * parsed[1::2]
    _check(ok(parsed), lineno, f"{name} {must}")
    return name, parsed


def _gibbs_dump(v: dict, at: dict, dimension: int) -> WitnessDump:
    """Check a gibbs block's lines against each other; the dump they describe.

    ``v`` and ``at`` map each line's name to its values and line number.
    """
    for key in _WITNESS_ROW:
        if key not in _COLUMNS and key not in v:
            raise ManifestError(f"gibbs witness is missing {key!r}")
    rows, r, counts = v["rows"], v["rank"], v["counts"]
    _check(np.all((rows >= 1) & (rows <= dimension)), at["rows"],
           f"rows must lie in [1, {dimension}]")
    _check(int(counts.sum()) == v["p"], at["counts"],
           f"counts sum to {int(counts.sum())}, p says {v['p']}")
    if len(v["exponent"]) != v["tau"]:
        raise ManifestError(f"exponent lists {len(v['exponent'])} entries, tau says {v['tau']}")
    if v["sigma"].size != r or v["core-d"].size != r:
        raise ManifestError("spectral data does not match the declared rank")
    left = [f"left {k}" for k in range(1, r + 1)]
    core = [f"core-u {k}" for k in range(1, r + 1)]
    if sorted(name for name in v if name.split()[0] in _COLUMNS) != sorted(left + core):
        raise ManifestError("left/core-u vectors must cover 1..rank exactly once")
    for name in sorted(["row-probs", "counts", *left], key=at.get):
        _check(v[name].size == rows.size, at[name],
               f"{name} lists {v[name].size} values for {rows.size} rows")
    for name in core:
        _check(v[name].size == r, at[name], f"core-u lists {v[name].size} values for rank {r}")
    return WitnessDump(
        kind="gibbs",
        beta=v["beta"],
        exponent=[int(j) - 1 for j in v["exponent"]],
        rows=rows - 1,
        row_probs=v["row-probs"],
        counts=counts,
        sigma=v["sigma"],
        left=np.stack([v[name] for name in left], axis=1),
        core_d=v["core-d"],
        core_u=np.stack([v[name] for name in core], axis=1),
    )


def parse(text: str) -> RunReport:
    """Parse a rendered report, validating structure as it goes.

    The witness line closes the run's lines: after `witness gibbs` come
    only the witness's own lines, which are read nowhere else, and
    after `witness none` or `witness uniform` only `end`.
    """
    lines = text.splitlines()
    if lines and lines[0].startswith("sdpsketch-report ") and lines[0] != HEADER:
        raise ManifestError(
            f"report line 1: report version {lines[0].split(' ', 1)[1]} is not "
            f"read; this reader takes version {VERSION}"
        )
    if not lines or lines[0] != HEADER:
        raise ManifestError("not a report: missing header line")
    if not lines or lines[-1] != "end":
        raise ManifestError("truncated report: missing end line")
    scalars: dict[str, object] = {}
    violations: list[tuple[int, int, float]] = []
    violation_lines: list[int] = []
    estimates: list[tuple[int, float]] = []
    timings: list[tuple[str, float]] = []
    kind: Optional[str] = None
    block: dict[str, object] = {}
    at: dict[str, int] = {}
    for lineno, line in enumerate(lines[1:-1], start=2):
        tokens = line.split()
        _check(tokens, lineno, "empty line inside report")
        key = tokens[0]
        if key == "witness":
            _check(len(tokens) == 2, lineno, "witness takes one value")
            _check(kind is None, lineno, f"duplicate {key!r}")
            kind = tokens[1]
            if kind not in ("none", "uniform", "gibbs"):
                raise ManifestError(f"unknown witness kind {kind!r}")
        elif kind is not None:
            _check(kind == "gibbs" and key in _WITNESS_ROW, lineno,
                   f"{key!r} may not follow 'witness {kind}'")
            name, values = _witness_line(tokens, lineno)
            _check(name not in at, lineno, f"duplicate {name if key in _COLUMNS else repr(name)}")
            block[name], at[name] = values, lineno
        elif key in _WITNESS_ROW:
            raise ManifestError(
                f"report line {lineno}: {key!r} only belongs after 'witness gibbs'"
            )
        elif key == "violation":
            _check(len(tokens) == 4, lineno, "violation takes three fields")
            t, j, zeta = (tok(token, lineno) for tok, token in zip(_VIOLATION, tokens[1:]))
            violations.append((t, j - 1, zeta))
            violation_lines.append(lineno)
        elif key == "estimate":
            _check(len(tokens) == 3, lineno, "estimate takes two fields")
            estimates.append((_int_tok(tokens[1], lineno), _float_tok(tokens[2], lineno)))
        elif key == "timing":
            _check(len(tokens) == 3, lineno, "timing takes two fields")
            timings.append((tokens[1], _float_tok(tokens[2], lineno)))
        elif key in _RUN:
            _check(key not in scalars, lineno, f"duplicate {key!r}")
            _check(len(tokens) == 2, lineno, f"{key} takes one value")
            scalars[key] = _RUN[key][1](tokens[1], lineno)
        else:
            raise ManifestError(f"report line {lineno}: unknown key {key!r}")
    for required in (
        "command", "dimension", "seed", "epsilon", "constraints", "rounds", "verdict", "iterations"
    ):
        if required not in scalars:
            raise ManifestError(f"report is missing {required!r}")
    rounds, m = scalars["rounds"], scalars["constraints"]
    for lineno, (t, j, _) in zip(violation_lines, violations):
        _check(t <= rounds, lineno, f"violation round {t} exceeds rounds {rounds}")
        _check(j < m, lineno, f"violation constraint {j + 1} exceeds constraints {m}")
    if scalars["verdict"] not in ("feasible", "infeasible"):
        raise ManifestError(f"unknown verdict {scalars['verdict']!r}")
    if [k for k, _ in estimates] != list(range(1, len(estimates) + 1)):
        raise ManifestError("estimate lines must appear as 1..k in order")
    witness = None
    if kind == "uniform":
        witness = WitnessDump(kind="uniform")
    elif kind == "gibbs":
        witness = _gibbs_dump(block, at, scalars["dimension"])
    return RunReport(
        **{_RUN[key][0]: value for key, value in scalars.items()},
        violations=violations,
        estimates=[v for _, v in estimates],
        timings=timings,
        witness=witness,
    )


def load_report(path: str) -> RunReport:
    """Parse a report file; an undecodable byte raises naming ``path:line``."""
    return parse(read_text(path))


def save_report(path: str, report: RunReport) -> None:
    with open(path, "w", encoding="ascii") as handle:
        handle.write(render(report))
