"""Run reports: line-oriented, byte-deterministic records of a run.

A report starts with `sdpsketch-report 2` and ends with `end`.  Floats
are printed with %.17g so every value round-trips bit-exactly; all
indices (rounds, constraints, matrix rows) are 1-based on disk and
0-based in memory, with the conversion confined to render/parse.
The run's scalar lines follow one table in a fixed order, which render
and parse both read; an optional line whose field is unset is left out.

A feasible run's witness is dumped in its succinct form: the chosen
exponent summands (so the sampling stores can be re-joined from the
manifest), the distinct sampled rows with their probabilities and
counts (which sum to p, at least 1), the singular values, the left
vectors on the distinct rows, and the compressed-matrix eigensystem;
nothing in it grows with p.
Rebuilding from those bytes reproduces the witness exactly, so entry
queries against a reloaded report match the original run bit for bit.

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


def _fmt_complex(z: complex) -> str:
    return f"{fmt(z.real)} {fmt(z.imag)}"


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
    verdict: str = "infeasible"
    iterations: int = 0
    constraints: int = 0
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
    """Capture a candidate's succinct description for serialization."""
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
    if w is None:
        lines.append("witness none")
    elif w.kind == "uniform":
        lines.append("witness uniform")
    else:
        r = w.left.shape[1]
        lines.append("witness gibbs")
        lines.append(f"beta {fmt(w.beta)}")
        lines.append(f"tau {len(w.exponent)}")
        lines.append("exponent " + " ".join(str(j + 1) for j in w.exponent))
        lines.append(f"p {int(w.counts.sum())}")
        lines.append(f"rank {r}")
        lines.append("rows " + " ".join(str(int(i) + 1) for i in w.rows))
        lines.append("row-probs " + " ".join(fmt(q) for q in w.row_probs))
        lines.append("counts " + " ".join(str(int(c)) for c in w.counts))
        lines.append("sigma " + " ".join(fmt(s) for s in w.sigma))
        for k in range(r):
            pairs = " ".join(_fmt_complex(z) for z in w.left[:, k])
            lines.append(f"left {k + 1} {pairs}")
        lines.append("core-d " + " ".join(fmt(d) for d in w.core_d))
        for k in range(r):
            pairs = " ".join(_fmt_complex(z) for z in w.core_u[:, k])
            lines.append(f"core-u {k + 1} {pairs}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def _check(ok, lineno: int, rule: str) -> None:
    """Reject the report, naming its line, unless ``ok``."""
    if not ok:
        raise ManifestError(f"report line {lineno}: {rule}")


def _toks(line: str, lineno: int) -> list[str]:
    tokens = line.split()
    _check(tokens, lineno, "empty line inside report")
    return tokens


def _float_tok(token: str, lineno: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise ManifestError(f"report line {lineno}: bad float {token!r}") from None


def _beta_tok(token: str, lineno: int) -> float:
    beta = _float_tok(token, lineno)
    _check(0.0 <= beta < np.inf, lineno, "beta must be nonnegative and finite")
    return beta


def _int_tok(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ManifestError(f"report line {lineno}: bad integer {token!r}") from None


def _at_least_one(name: str):
    """Integer parser for a count that must be at least 1."""

    def tok(token: str, lineno: int) -> int:
        value = _int_tok(token, lineno)
        _check(value >= 1, lineno, f"{name} must be at least 1")
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
    ("dimension", "dimension", _int_tok, str),
    ("manifest-sha256", "manifest_sha", _str_tok, str),
    ("seed", "seed", _int_tok, str),
    ("epsilon", "epsilon", _float_tok, fmt),
    ("constraints", "constraints", _int_tok, str),
    ("rounds", "rounds", _int_tok, str),
    ("beta-scale", "beta_scale", _float_tok, fmt),
    ("delta-total", "delta_total", _float_tok, fmt),
    ("preset", "preset", _str_tok, str),
    ("sketch-p", "sketch_p", _int_tok, str),
    ("sketch-gamma", "sketch_gamma", _float_tok, fmt),
    ("verdict", "verdict", _str_tok, str),
    ("iterations", "iterations", _int_tok, str),
)
_TAIL = (
    ("value", "value", _float_tok, fmt),
    ("calls", "calls", _int_tok, str),
)

# Every single-value key and the parser of its value: the run's scalars
# and the gibbs witness's.
_SCALARS = {key: tok for key, _, tok, _ in _HEAD + _TAIL} | {
    "beta": _beta_tok,
    "tau": _int_tok,
    "p": _at_least_one("p"),
    "rank": _at_least_one("rank"),
}


def _scalar_lines(report: RunReport, table) -> list[str]:
    """One line per field of ``table`` that ``report`` sets, in table order."""
    return [
        f"{key} {out(value)}"
        for key, name, _, out in table
        if (value := getattr(report, name)) is not None
    ]


def _complex_vec(tokens: list[str], lineno: int, name: str) -> np.ndarray:
    _check(len(tokens) % 2 == 0, lineno, "odd number of components")
    values = [_float_tok(t, lineno) for t in tokens]
    arr = np.array(values, dtype=np.float64).reshape(-1, 2)
    _check(np.all(np.isfinite(arr)), lineno, f"{name} must be finite")
    return arr[:, 0] + 1j * arr[:, 1]


def _vec(payload: dict, key: str, tok) -> tuple[int, np.ndarray]:
    """Line number and values of a payload line, each parsed by ``tok``."""
    lineno, tokens = payload[key]
    return lineno, np.array([tok(t, lineno) for t in tokens])


def parse(text: str) -> RunReport:
    """Parse a rendered report, validating structure as it goes."""
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
    estimates: list[tuple[int, float]] = []
    timings: list[tuple[str, float]] = []
    witness_kind: Optional[str] = None
    payload: dict[str, tuple[int, list[str]]] = {}
    left_rows: dict[int, tuple[int, np.ndarray]] = {}
    core_rows: dict[int, tuple[int, np.ndarray]] = {}
    for lineno, line in enumerate(lines[1:-1], start=2):
        tokens = _toks(line, lineno)
        key = tokens[0]
        if key == "violation":
            _check(len(tokens) == 4, lineno, "violation takes three fields")
            violations.append(
                (
                    _int_tok(tokens[1], lineno),
                    _int_tok(tokens[2], lineno) - 1,
                    _float_tok(tokens[3], lineno),
                )
            )
        elif key == "estimate":
            _check(len(tokens) == 3, lineno, "estimate takes two fields")
            estimates.append((_int_tok(tokens[1], lineno), _float_tok(tokens[2], lineno)))
        elif key == "timing":
            _check(len(tokens) == 3, lineno, "timing takes two fields")
            timings.append((tokens[1], _float_tok(tokens[2], lineno)))
        elif key == "witness":
            _check(len(tokens) == 2, lineno, "witness takes one value")
            _check(witness_kind is None, lineno, f"duplicate {key!r}")
            witness_kind = tokens[1]
        elif key in ("left", "core-u"):
            _check(len(tokens) >= 2, lineno, f"{key} takes an index")
            vecs = left_rows if key == "left" else core_rows
            k = _int_tok(tokens[1], lineno)
            _check(k not in vecs, lineno, f"duplicate {key} {k}")
            vecs[k] = (lineno, _complex_vec(tokens[2:], lineno, f"{key} {k}"))
        elif key in ("exponent", "rows", "row-probs", "counts", "sigma", "core-d"):
            _check(key not in payload, lineno, f"duplicate {key!r}")
            payload[key] = (lineno, tokens[1:])
        elif key in _SCALARS:
            _check(key not in scalars, lineno, f"duplicate {key!r}")
            _check(len(tokens) == 2, lineno, f"{key} takes one value")
            scalars[key] = _SCALARS[key](tokens[1], lineno)
        else:
            raise ManifestError(f"report line {lineno}: unknown key {key!r}")
    for required in ("command", "dimension", "seed", "epsilon", "rounds", "verdict", "iterations"):
        if required not in scalars:
            raise ManifestError(f"report is missing {required!r}")
    if scalars["verdict"] not in ("feasible", "infeasible"):
        raise ManifestError(f"unknown verdict {scalars['verdict']!r}")
    witness: Optional[WitnessDump] = None
    if witness_kind == "uniform":
        witness = WitnessDump(kind="uniform", beta=scalars.get("beta", 0.0))
    elif witness_kind == "gibbs":
        for required in ("beta", "tau", "p", "rank"):
            if required not in scalars:
                raise ManifestError(f"gibbs witness is missing {required!r}")
        p = scalars["p"]
        r = scalars["rank"]
        tau = scalars["tau"]
        dimension = scalars["dimension"]
        for required in ("exponent", "rows", "row-probs", "counts", "sigma", "core-d"):
            if required not in payload:
                raise ManifestError(f"gibbs witness is missing {required!r}")
        at, exponent = _vec(payload, "exponent", _int_tok)
        _check(np.all(exponent >= 1), at, "exponent entries must be at least 1")
        exponent = [int(j) - 1 for j in exponent]
        at, rows = _vec(payload, "rows", _int_tok)
        _check(np.all(np.diff(rows) > 0), at, "rows must be strictly increasing")
        _check(np.all((rows >= 1) & (rows <= dimension)), at, f"rows must lie in [1, {dimension}]")
        at, row_probs = _vec(payload, "row-probs", _float_tok)
        _check(np.all((row_probs > 0.0) & (row_probs < np.inf)), at,
               "row-probs must be positive and finite")
        at, counts = _vec(payload, "counts", _int_tok)
        _check(np.all(counts >= 1), at, "counts must be positive")
        _check(int(counts.sum()) == p, at, f"counts sum to {int(counts.sum())}, p says {p}")
        at, sigma = _vec(payload, "sigma", _float_tok)
        _check(np.all((sigma > 0.0) & (sigma < np.inf)), at, "sigma must be positive and finite")
        at, core_d = _vec(payload, "core-d", _float_tok)
        _check(np.all(np.isfinite(core_d)), at, "core-d must be finite")
        if len(exponent) != tau:
            raise ManifestError(f"exponent lists {len(exponent)} entries, tau says {tau}")
        if sigma.size != r or core_d.size != r:
            raise ManifestError("spectral data does not match the declared rank")
        if sorted(left_rows) != list(range(1, r + 1)) or sorted(core_rows) != list(
            range(1, r + 1)
        ):
            raise ManifestError("left/core-u vectors must cover 1..rank exactly once")
        lengths = [(payload[key][0], key, len(payload[key][1])) for key in ("row-probs", "counts")]
        lengths += [(at, f"left {k}", vec.size) for k, (at, vec) in left_rows.items()]
        for at, key, size in sorted(lengths):
            _check(size == rows.size, at, f"{key} lists {size} values for {rows.size} rows")
        left = np.stack([left_rows[k][1] for k in range(1, r + 1)], axis=1)
        for at, vec in core_rows.values():
            _check(vec.size == r, at, f"core-u lists {vec.size} values for rank {r}")
        core_u = np.stack([core_rows[k][1] for k in range(1, r + 1)], axis=1)
        witness = WitnessDump(
            kind="gibbs",
            beta=scalars["beta"],
            exponent=exponent,
            rows=rows - 1,
            row_probs=row_probs,
            counts=counts,
            sigma=sigma,
            left=left,
            core_d=core_d,
            core_u=core_u,
        )
    elif witness_kind not in (None, "none"):
        raise ManifestError(f"unknown witness kind {witness_kind!r}")
    if [k for k, _ in estimates] != list(range(1, len(estimates) + 1)):
        raise ManifestError("estimate lines must appear as 1..k in order")
    return RunReport(
        **{name: scalars[key] for key, name, _, _ in _HEAD + _TAIL if key in scalars},
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
