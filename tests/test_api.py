"""Public names other code binds by name.

The benchmark's tracer wraps every ``__all__`` entry of the six layer modules
through ``getattr``, and its runner reads a few names directly, so a stale
entry or a renamed attribute breaks a traced run before any test of the
layer itself would notice.
"""

import importlib

import steklovlab
from steklovlab import geometry, potentials

LAYERS = ("geometry", "assembly", "eigensolve", "weyl", "potentials", "harness")


def test_public_names_resolve():
    for name in LAYERS:
        module = importlib.import_module(f"steklovlab.{name}")
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, f"steklovlab.{name}.__all__ names missing attributes: {missing}"
    assert callable(geometry.triangulate_polygon)
    assert callable(steklovlab.active_backend)
    assert "matrix" in potentials.NDResult.__dataclass_fields__
