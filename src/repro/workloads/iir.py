"""The first-order IIR filter behind every AR(1) series of the generator.

Each AR(1) series the load model draws is its scaled innovations run
through ``y[t] = x[t] + rho * y[t - 1]``, which is
``scipy.signal.lfilter([1.0], [1.0, -rho], x)``.  Importing
``scipy.signal`` for that one call loads ~800 modules and raises a
fresh interpreter's peak resident set by ~78 MiB, more than building
the synthesis context and two 92-day machines together.  For a
denominator longer than one tap, ``lfilter`` hands its float64
coefficient arrays, the input, the axis and any initial state straight
to one compiled kernel, ``scipy.signal._sigtools._linear_filter``.  This module
loads that kernel from its extension file, so neither
``scipy/__init__.py`` nor ``scipy/signal/__init__.py`` runs, and calls
it exactly as ``lfilter`` does: the output is bit-identical by
construction.

The kernel is a private scipy symbol.  If it cannot be found or loaded,
:func:`ar1_filter` falls back to ``scipy.signal.lfilter`` itself,
imported on first use; ``tests/test_workloads_iir.py`` asserts the fast
path is active on the installed scipy and that both paths agree bit for
bit.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from typing import Callable, Optional, Union

import numpy as np

__all__ = ["ar1_filter"]

_MODULE = "scipy.signal._sigtools"


def _load_kernel() -> Optional[Callable]:
    """scipy's compiled ``_linear_filter``, or ``None`` if it cannot be
    found or loaded."""
    module = sys.modules.get(_MODULE)
    if module is None:
        spec = importlib.util.find_spec("scipy")
        roots = (spec.submodule_search_locations or []) if spec else []
        paths = [
            os.path.join(root, "signal", "_sigtools" + suffix)
            for root in roots
            for suffix in importlib.machinery.EXTENSION_SUFFIXES
        ]
        path = next((p for p in paths if os.path.isfile(p)), None)
        if path is None:
            return None
        loader = importlib.machinery.ExtensionFileLoader(_MODULE, path)
        try:
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_loader(_MODULE, loader)
            )
            loader.exec_module(module)
        except ImportError:
            return None
    return getattr(module, "_linear_filter", None)


#: The compiled kernel, or ``None`` when only the fallback is available.
_KERNEL = _load_kernel()


def ar1_filter(
    rho: float, x: np.ndarray, zi: Optional[np.ndarray] = None
) -> Union[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """``lfilter([1.0], [1.0, -rho], x, axis=-1, zi=zi)``, bit for bit.

    Filters along the last axis, so each row of a 2-D ``x`` is its own
    series.  Without ``zi``, returns a new float64 array.  With ``zi``,
    the filter state before ``x`` (shape ``x.shape[:-1] + (1,)``, zeros
    for a series' start), returns ``(y, zf)`` like ``lfilter``: passing
    each call's ``zf`` as the next call's ``zi`` filters a series in
    pieces with the same floats as one call over the whole.  ``x`` must
    not be empty when ``zi`` is given: the kernel leaves ``zf`` unset.
    """
    b = np.array([1.0])
    a = np.array([1.0, -rho])
    if _KERNEL is not None:
        if zi is None:
            return _KERNEL(b, a, x, -1)
        return _KERNEL(b, a, x, -1, zi)
    from scipy.signal import lfilter

    return lfilter(b, a, x, axis=-1, zi=zi)
