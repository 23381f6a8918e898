"""The benchmark tracer's patch targets exist in the package and are restored.

`bench/tracer.py` patches public names by (owner, attribute); a rename in
`src/` would otherwise surface only when a traced benchmark run fails.
"""
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def places(tracer):
    return [place for _, group, _ in tracer._TARGETS for place in group]


def test_every_target_resolves_to_a_callable():
    tracer = load_tracer()
    assert places(tracer)
    for owner, attr in places(tracer):
        # The tracer reads the original from the owner's own namespace.
        assert attr in vars(owner), f"{owner.__name__}.{attr}"
        assert callable(getattr(owner, attr)), f"{owner.__name__}.{attr}"


def test_exit_restores_every_original():
    tracer = load_tracer()
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr in places(tracer)]
    with tracer.Tracer():
        for owner, attr, original in originals:
            assert vars(owner)[attr] is not original, f"{owner.__name__}.{attr}"
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"
