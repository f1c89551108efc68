"""Finite-difference gradient check shared by the autodiff and model tests."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from recipegen.autodiff import Tensor, no_grad


def grad_check(
    f: Callable[[], Tensor],
    params: Sequence[Tensor] | dict[str, Tensor],
    eps: float = 1e-5,
    max_coords_per_param: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Compare analytic gradients of the scalar ``f()`` against central finite
    differences at the current parameter values.

    Returns the max relative error ``|a - n| / max(|a| + |n|, 1e-3)`` over the
    checked coordinates.  ``max_coords_per_param`` subsamples coordinates of
    large tensors (deterministically when ``rng`` is seeded); parameters must
    be float64 for the differences to resolve.
    """
    if isinstance(params, dict):
        params = list(params.values())
    rng = rng or np.random.default_rng(0)

    for p in params:
        p.grad = None
    out = f()
    out.backward()
    analytic = [None if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        coords = np.arange(flat.size)
        if max_coords_per_param is not None and flat.size > max_coords_per_param:
            coords = np.sort(rng.choice(flat.size, size=max_coords_per_param, replace=False))
        a_flat = np.zeros(flat.size) if a is None else a.reshape(-1)
        for c in coords:
            orig = flat[c]
            step = eps * max(1.0, abs(orig))
            with no_grad():
                flat[c] = orig + step
                hi = f().item()
                flat[c] = orig - step
                lo = f().item()
                flat[c] = orig
            numeric = (hi - lo) / (2.0 * step)
            err = abs(a_flat[c] - numeric) / max(abs(a_flat[c]) + abs(numeric), 1e-3)
            worst = max(worst, err)
    return worst
