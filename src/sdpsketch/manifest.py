"""Problem manifests: plain-text descriptions of solver inputs.

A manifest is a line-oriented key/value file.  `#` starts a comment and
blank lines are ignored.  The first meaningful line must be
`kind feasibility|optimize|shadow`; scalar keys appear at most once and
matrix paths are resolved relative to the manifest's directory.

    kind feasibility
    dimension 8
    epsilon 0.25
    rp 1.0
    rd 1.0
    constraint a0.mat -0.9
    constraint a1.mat 0.125
    sha256 a0.mat 9f2c...

Feasibility manifests list `constraint <path> <bound>` lines; optimize
manifests add a single `cost <path>`; shadow manifests use
`effect <path> <value>` with values in [-1, 1].  The slack handed to
the solver is epsilon / (rp * rd), so width renormalization lives in
the file, not the code.  `sha256` lines are optional integrity pins,
each naming a listed file at most once, verified when present against
the bytes that are then parsed: each matrix file is read once.

The manifest is read once too: `load_manifest` keeps the sha256 of the
bytes it parsed, which a report pins, and each problem is built from
that `Manifest` (`feasibility_problem`, `optimization_problem`,
`shadow_effects`); `load_feasibility` is a parse followed by a build.
"""
from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

from .errors import ManifestError, ShapeError
from .solver import FeasibilityProblem, OptimizationProblem, shadow_to_feasibility
from .store import SampledMatrix, decode_text, file_sha256, read_bytes

KINDS = ("feasibility", "optimize", "shadow")
_SCALARS = ("dimension", "epsilon", "rp", "rd")


@dataclass
class Manifest:
    """Parsed manifest contents and the sha256 of the bytes parsed; matrices unloaded."""

    path: str
    sha256: str
    kind: str
    dimension: int
    epsilon: float
    rp: float = 1.0
    rd: float = 1.0
    constraints: list[tuple[str, float]] = field(default_factory=list)
    cost: str | None = None
    effects: list[tuple[str, float]] = field(default_factory=list)
    hashes: dict[str, str] = field(default_factory=dict)

    @property
    def effective_epsilon(self) -> float:
        return self.epsilon / (self.rp * self.rd)


def _parse_float(token: str, path: str, lineno: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ManifestError(f"{path}:{lineno}: {what} is not a number: {token!r}") from None
    if not value == value or value in (float("inf"), float("-inf")):
        raise ManifestError(f"{path}:{lineno}: {what} must be finite, got {token}")
    return value


def load_manifest(path: str, report_sha256: str | None = None) -> Manifest:
    """Read a manifest file once, then parse and validate those bytes.

    If ``report_sha256`` is given, the bytes must hash to it, or
    `ManifestError` says so before anything is parsed.
    """
    data = read_bytes(path)
    digest = hashlib.sha256(data).hexdigest()
    if report_sha256 is not None and digest != report_sha256:
        raise ManifestError(f"manifest hash {digest} does not match the report's {report_sha256}")
    kind = None
    scalars: dict[str, float] = {}
    constraints: list[tuple[str, float]] = []
    cost = None
    effects: list[tuple[str, float]] = []
    hashes: dict[str, str] = {}
    pinned_at: dict[str, int] = {}
    for lineno, raw in enumerate(decode_text(path, data).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key = tokens[0]
        if kind is None:
            if key != "kind":
                raise ManifestError(f"{path}:{lineno}: first entry must be 'kind', got {key!r}")
            if len(tokens) != 2 or tokens[1] not in KINDS:
                raise ManifestError(
                    f"{path}:{lineno}: kind must be one of {', '.join(KINDS)}"
                )
            kind = tokens[1]
            continue
        if key == "kind":
            raise ManifestError(f"{path}:{lineno}: duplicate 'kind' entry")
        elif key in _SCALARS:
            if len(tokens) != 2:
                raise ManifestError(f"{path}:{lineno}: {key} takes exactly one value")
            if key in scalars:
                raise ManifestError(f"{path}:{lineno}: duplicate {key!r} entry")
            scalars[key] = _parse_float(tokens[1], path, lineno, key)
        elif key == "constraint":
            if kind == "shadow":
                raise ManifestError(f"{path}:{lineno}: shadow manifests use 'effect' lines")
            if len(tokens) != 3:
                raise ManifestError(f"{path}:{lineno}: constraint takes <path> <bound>")
            constraints.append((tokens[1], _parse_float(tokens[2], path, lineno, "bound")))
        elif key == "cost":
            if kind != "optimize":
                raise ManifestError(f"{path}:{lineno}: 'cost' only belongs in optimize manifests")
            if cost is not None:
                raise ManifestError(f"{path}:{lineno}: duplicate 'cost' entry")
            if len(tokens) != 2:
                raise ManifestError(f"{path}:{lineno}: cost takes exactly one path")
            cost = tokens[1]
        elif key == "effect":
            if kind != "shadow":
                raise ManifestError(f"{path}:{lineno}: 'effect' only belongs in shadow manifests")
            if len(tokens) != 3:
                raise ManifestError(f"{path}:{lineno}: effect takes <path> <value>")
            value = _parse_float(tokens[2], path, lineno, "effect value")
            if not -1.0 <= value <= 1.0:
                raise ManifestError(f"{path}:{lineno}: effect value outside [-1, 1]: {value}")
            effects.append((tokens[1], value))
        elif key == "sha256":
            if len(tokens) != 3:
                raise ManifestError(f"{path}:{lineno}: sha256 takes <path> <digest>")
            if tokens[1] in hashes:
                raise ManifestError(f"{path}:{lineno}: second sha256 pin for {tokens[1]!r}")
            hashes[tokens[1]] = tokens[2].lower()
            pinned_at[tokens[1]] = lineno
        else:
            raise ManifestError(f"{path}:{lineno}: unknown key {key!r}")
    if kind is None:
        raise ManifestError(f"{path}: empty manifest")
    for required in ("dimension", "epsilon"):
        if required not in scalars:
            raise ManifestError(f"{path}: missing required key {required!r}")
    dimension = scalars["dimension"]
    if dimension != int(dimension) or dimension < 1:
        raise ManifestError(f"{path}: dimension must be a positive integer, got {dimension}")
    manifest = Manifest(
        path=path,
        sha256=digest,
        kind=kind,
        dimension=int(dimension),
        epsilon=scalars["epsilon"],
        rp=scalars.get("rp", 1.0),
        rd=scalars.get("rd", 1.0),
        constraints=constraints,
        cost=cost,
        effects=effects,
        hashes=hashes,
    )
    if manifest.rp <= 0 or manifest.rd <= 0:
        raise ManifestError(f"{path}: width parameters must be positive")
    if not 0 < manifest.effective_epsilon < 1:
        raise ManifestError(
            f"{path}: epsilon / (rp * rd) = {manifest.effective_epsilon} must lie in (0, 1)"
        )
    if kind in ("feasibility", "optimize") and not constraints:
        raise ManifestError(f"{path}: no constraint lines")
    if kind == "optimize" and cost is None:
        raise ManifestError(f"{path}: optimize manifests need a 'cost' line")
    if kind == "shadow" and not effects:
        raise ManifestError(f"{path}: no effect lines")
    listed = {rel for rel, _ in constraints + effects} | {cost}
    for rel, lineno in pinned_at.items():
        if rel not in listed:
            raise ManifestError(f"{path}:{lineno}: sha256 pin for unlisted file {rel!r}")
    return manifest


def _load_matrix(manifest: Manifest, rel_path: str) -> SampledMatrix:
    full = os.path.join(os.path.dirname(os.path.abspath(manifest.path)), rel_path)
    # The file is read once: a pin covers the very bytes that are parsed.
    matrix = SampledMatrix.load(full, manifest.hashes.get(rel_path))
    n = manifest.dimension
    if matrix.n != n:
        raise ManifestError(f"{full}: dimension {matrix.n} does not match manifest dimension {n}")
    return matrix


def _load_listed(manifest: Manifest, listed: list[tuple[str, float]]):
    """The stores of (path, value) pairs in order, and their values."""
    return [_load_matrix(manifest, p) for p, _ in listed], [v for _, v in listed]


def feasibility_problem(manifest: Manifest, eps: float) -> FeasibilityProblem:
    """The feasibility set of a feasibility or shadow manifest, at slack eps."""
    if manifest.kind == "shadow":
        return shadow_to_feasibility(*shadow_effects(manifest), eps)
    if manifest.kind != "feasibility":
        raise ManifestError(
            f"{manifest.path}: expected a feasibility or shadow manifest, got {manifest.kind}"
        )
    stores, bounds = _load_listed(manifest, manifest.constraints)
    return FeasibilityProblem(constraints=stores, bounds=bounds, eps=eps)


def optimization_problem(manifest: Manifest) -> OptimizationProblem:
    if manifest.kind != "optimize":
        raise ManifestError(f"{manifest.path}: expected an optimize manifest, got {manifest.kind}")
    stores, bounds = _load_listed(manifest, manifest.constraints)
    cost = _load_matrix(manifest, manifest.cost)
    return OptimizationProblem(cost=cost, constraints=stores, bounds=bounds)


def shadow_effects(manifest: Manifest) -> tuple[list[SampledMatrix], list[float]]:
    """The effect stores of a shadow manifest and their values."""
    if manifest.kind != "shadow":
        raise ManifestError(f"{manifest.path}: expected a shadow manifest, got {manifest.kind}")
    return _load_listed(manifest, manifest.effects)


def load_feasibility(path: str) -> FeasibilityProblem:
    manifest = load_manifest(path)
    return feasibility_problem(manifest, manifest.effective_epsilon)


def _write_manifest(path: str, head: list[str], listed: list[tuple], with_hashes: bool) -> None:
    """Save the listed matrices next to ``path``, then write the manifest.

    After the ``head`` lines, each (key, file name, store, value or None)
    of ``listed`` gives a `<key> <name> [<value>]` line, and with
    ``with_hashes`` a `sha256` line per file follows, in the same order.
    """
    directory = os.path.dirname(os.path.abspath(path))
    lines = list(head)
    for key, name, store, value in listed:
        store.save(os.path.join(directory, name))
        lines.append(f"{key} {name}" if value is None else f"{key} {name} {value:.17g}")
    if with_hashes:
        for _, name, _, _ in listed:
            lines.append(f"sha256 {name} {file_sha256(os.path.join(directory, name))}")
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")


def _listed(key: str, stores: list, values: list[float]) -> list[tuple]:
    """(key, file name, store, value) lines, file k of each key named ``<key>_<k>.mat``."""
    if len(stores) != len(values):
        raise ShapeError(f"{len(stores)} {key} matrices but {len(values)} values")
    return [(key, f"{key}_{k}.mat", s, v) for k, (s, v) in enumerate(zip(stores, values))]


def write_feasibility_manifest(
    path: str, constraints: list, bounds: list[float], eps: float, with_hashes: bool = True
) -> None:
    """Write a feasibility manifest plus its matrix files next to it."""
    head = ["kind feasibility", f"dimension {constraints[0].n}", f"epsilon {eps:.17g}"]
    _write_manifest(path, head, _listed("constraint", constraints, bounds), with_hashes)


def write_shadow_manifest(
    path: str, effects: list, values: list[float], eps: float, with_hashes: bool = True
) -> None:
    """Write a shadow manifest plus its effect files next to it."""
    head = ["kind shadow", f"dimension {effects[0].n}", f"epsilon {eps:.17g}"]
    _write_manifest(path, head, _listed("effect", effects, values), with_hashes)


def write_optimize_manifest(
    path: str, cost, constraints: list, bounds: list[float], eps: float,
    rp: float = 1.0, rd: float = 1.0, with_hashes: bool = True,
) -> None:
    """Write an optimize manifest plus cost and constraint files."""
    head = ["kind optimize", f"dimension {cost.n}", f"epsilon {eps:.17g}", f"rp {rp:.17g}",
            f"rd {rd:.17g}"]
    listed = [("cost", "cost.mat", cost, None)] + _listed("constraint", constraints, bounds)
    _write_manifest(path, head, listed, with_hashes)
