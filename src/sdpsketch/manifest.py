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
verified when present against the bytes that are then parsed: each
matrix file is read once.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

from .errors import ManifestError
from .solver import FeasibilityProblem, OptimizationProblem, shadow_to_feasibility
from .store import SampledMatrix, file_sha256, read_text

KINDS = ("feasibility", "optimize", "shadow")
_SCALARS = ("dimension", "epsilon", "rp", "rd")


@dataclass
class Manifest:
    """Parsed manifest contents, paths resolved but matrices unloaded."""

    kind: str
    dimension: int
    epsilon: float
    rp: float = 1.0
    rd: float = 1.0
    constraints: list[tuple[str, float]] = field(default_factory=list)
    cost: str | None = None
    effects: list[tuple[str, float]] = field(default_factory=list)
    hashes: dict[str, str] = field(default_factory=dict)
    base_dir: str = "."

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


def load_manifest(path: str) -> Manifest:
    """Parse and validate a manifest file."""
    base_dir = os.path.dirname(os.path.abspath(path))
    kind = None
    scalars: dict[str, float] = {}
    constraints: list[tuple[str, float]] = []
    cost = None
    effects: list[tuple[str, float]] = []
    hashes: dict[str, str] = {}
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
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
            hashes[tokens[1]] = tokens[2].lower()
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
        kind=kind,
        dimension=int(dimension),
        epsilon=scalars["epsilon"],
        rp=scalars.get("rp", 1.0),
        rd=scalars.get("rd", 1.0),
        constraints=constraints,
        cost=cost,
        effects=effects,
        hashes=hashes,
        base_dir=base_dir,
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
    return manifest


def _load_matrix(manifest: Manifest, rel_path: str, n: int) -> SampledMatrix:
    full = os.path.join(manifest.base_dir, rel_path)
    # The file is read once: a pin covers the very bytes that are parsed.
    matrix = SampledMatrix.load(full, manifest.hashes.get(rel_path))
    if matrix.n != n:
        raise ManifestError(f"{full}: dimension {matrix.n} does not match manifest dimension {n}")
    return matrix


def load_feasibility(path: str) -> FeasibilityProblem:
    manifest = load_manifest(path)
    if manifest.kind == "shadow":
        effects, values = _load_effects(manifest)
        return shadow_to_feasibility(effects, values, manifest.effective_epsilon)
    if manifest.kind != "feasibility":
        raise ManifestError(f"{path}: expected a feasibility or shadow manifest, got {manifest.kind}")
    stores = [_load_matrix(manifest, p, manifest.dimension) for p, _ in manifest.constraints]
    bounds = [b for _, b in manifest.constraints]
    return FeasibilityProblem(
        constraints=stores, bounds=bounds, eps=manifest.effective_epsilon
    )


def load_optimization(path: str) -> tuple[OptimizationProblem, float]:
    """Returns the problem plus the effective slack for the inner calls."""
    manifest = load_manifest(path)
    if manifest.kind != "optimize":
        raise ManifestError(f"{path}: expected an optimize manifest, got {manifest.kind}")
    stores = [_load_matrix(manifest, p, manifest.dimension) for p, _ in manifest.constraints]
    bounds = [b for _, b in manifest.constraints]
    cost = _load_matrix(manifest, manifest.cost, manifest.dimension)
    problem = OptimizationProblem(
        cost=cost, constraints=stores, bounds=bounds, rp=manifest.rp, rd=manifest.rd
    )
    return problem, manifest.effective_epsilon


def _load_effects(manifest: Manifest) -> tuple[list[SampledMatrix], list[float]]:
    effects = [_load_matrix(manifest, p, manifest.dimension) for p, _ in manifest.effects]
    values = [v for _, v in manifest.effects]
    return effects, values


def load_shadow(path: str) -> tuple[list[SampledMatrix], list[float], float]:
    manifest = load_manifest(path)
    if manifest.kind != "shadow":
        raise ManifestError(f"{path}: expected a shadow manifest, got {manifest.kind}")
    effects, values = _load_effects(manifest)
    return effects, values, manifest.effective_epsilon


def write_matrix_files(directory: str, stores: list, prefix: str = "constraint") -> list[str]:
    """Save stores as .mat files in directory, returning relative names."""
    names = []
    for k, store in enumerate(stores):
        name = f"{prefix}_{k}.mat"
        store.save(os.path.join(directory, name))
        names.append(name)
    return names


def write_feasibility_manifest(
    path: str,
    constraints: list,
    bounds: list[float],
    eps: float,
    with_hashes: bool = True,
) -> None:
    """Write a feasibility manifest plus its matrix files next to it."""
    directory = os.path.dirname(os.path.abspath(path))
    names = write_matrix_files(directory, constraints)
    n = constraints[0].n
    lines = ["kind feasibility", f"dimension {n}", f"epsilon {eps:.17g}"]
    for name, bound in zip(names, bounds):
        lines.append(f"constraint {name} {bound:.17g}")
    if with_hashes:
        for name in names:
            lines.append(f"sha256 {name} {file_sha256(os.path.join(directory, name))}")
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")


def write_shadow_manifest(
    path: str,
    effects: list,
    values: list[float],
    eps: float,
    with_hashes: bool = True,
) -> None:
    """Write a shadow manifest plus its effect files next to it."""
    directory = os.path.dirname(os.path.abspath(path))
    names = write_matrix_files(directory, effects, prefix="effect")
    n = effects[0].n
    lines = ["kind shadow", f"dimension {n}", f"epsilon {eps:.17g}"]
    for name, value in zip(names, values):
        lines.append(f"effect {name} {value:.17g}")
    if with_hashes:
        for name in names:
            lines.append(f"sha256 {name} {file_sha256(os.path.join(directory, name))}")
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")


def write_optimize_manifest(
    path: str,
    cost,
    constraints: list,
    bounds: list[float],
    eps: float,
    rp: float = 1.0,
    rd: float = 1.0,
    with_hashes: bool = True,
) -> None:
    """Write an optimize manifest plus cost and constraint files."""
    directory = os.path.dirname(os.path.abspath(path))
    names = write_matrix_files(directory, constraints)
    cost_name = "cost.mat"
    cost.save(os.path.join(directory, cost_name))
    n = cost.n
    lines = [
        "kind optimize",
        f"dimension {n}",
        f"epsilon {eps:.17g}",
        f"rp {rp:.17g}",
        f"rd {rd:.17g}",
        f"cost {cost_name}",
    ]
    for name, bound in zip(names, bounds):
        lines.append(f"constraint {name} {bound:.17g}")
    if with_hashes:
        for name in [cost_name] + names:
            lines.append(f"sha256 {name} {file_sha256(os.path.join(directory, name))}")
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")
