"""Columnar storage backends: pure-python ``array`` vs numpy.

The columnar kernel stores every variable as one flat array indexed by
node id.  Two interchangeable backends provide that storage:

* ``"pure"`` — :mod:`array` arrays, zero dependencies; guard kernels
  run as scalar loops over plain ints.
* ``"numpy"`` — numpy arrays; large guard re-evaluations additionally
  use the vectorized mask path (see
  :mod:`repro.columnar.compiler`).

``REPRO_COLUMNAR_BACKEND`` selects the backend when the caller does not
pass one explicitly: ``"auto"`` (default — numpy when importable, else
pure), ``"numpy"`` (require numpy, raise if missing) or ``"pure"``
(never touch numpy, the CI leg that proves the dependency is optional).

Both backends must produce bit-identical enabled maps and successors —
asserted by ``tests/columnar/`` and the ``REPRO_ENGINE_VALIDATE``
lockstep mode.
"""

from __future__ import annotations

import os
from array import array

from repro.errors import ReproError

__all__ = [
    "BACKENDS",
    "numpy_available",
    "resolve_backend",
    "make_column",
    "make_objects",
]

#: Recognized values of ``REPRO_COLUMNAR_BACKEND``.
BACKENDS = ("auto", "numpy", "pure")

_numpy = None
_numpy_checked = False


def _load_numpy():
    global _numpy, _numpy_checked
    if not _numpy_checked:
        _numpy_checked = True
        try:
            import numpy
        except ImportError:
            _numpy = None
        else:
            _numpy = numpy
    return _numpy


def numpy_available() -> bool:
    """Whether the numpy backend can be used in this interpreter."""
    return _load_numpy() is not None


def resolve_backend(backend: str | None = None) -> str:
    """Resolve a backend request to ``"numpy"`` or ``"pure"``.

    ``None`` falls back to the ``REPRO_COLUMNAR_BACKEND`` environment
    variable (empty means unset), then to ``"auto"``.
    """
    if backend is None:
        backend = os.environ.get("REPRO_COLUMNAR_BACKEND") or "auto"
    if backend not in BACKENDS:
        raise ReproError(
            f"unknown columnar backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend == "auto":
        return "numpy" if numpy_available() else "pure"
    if backend == "numpy" and not numpy_available():
        raise ReproError(
            "REPRO_COLUMNAR_BACKEND=numpy but numpy is not importable"
        )
    return backend


#: ``array`` typecode → numpy dtype string.
_NUMPY_DTYPES = {
    "b": "int8",
    "B": "uint8",
    "h": "int16",
    "i": "int32",
    "l": "int64",
    "q": "int64",
}


def make_column(backend: str, typecode: str, values) -> "object":
    """Allocate one column holding ``values`` (a sequence of ints).

    Pure backend: an :class:`array.array` of the given typecode.  Numpy
    backend: an ndarray of the matching dtype.  Both support scalar
    ``col[i]`` reads/writes and ``len``; only numpy columns support the
    vectorized mask path.
    """
    if backend == "pure":
        return array(typecode, values)
    np = _load_numpy()
    assert np is not None, "numpy backend resolved without numpy"
    return np.array(list(values), dtype=_NUMPY_DTYPES[typecode])


def make_objects(backend: str, values) -> "object":
    """Allocate one payload column holding ``values`` by reference.

    Pure backend: a list.  Numpy backend: a ``dtype=object`` ndarray,
    filled element by element so tuple values stay single elements;
    fancy-index gathers on it copy references, never values.
    """
    values = list(values)
    if backend == "pure":
        return values
    np = _load_numpy()
    assert np is not None, "numpy backend resolved without numpy"
    return np.fromiter(values, dtype=object, count=len(values))
