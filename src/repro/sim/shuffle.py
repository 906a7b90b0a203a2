"""Rotation-based fine-grain load balancing (Sec. III, Load Balancing).

Unstructured sparsity leaves some lanes (k positions inside the dot-product
unit) systematically denser than others -- for example an input channel that
is never pruned.  The paper balances this by *shuffling* both input matrices
along their second blocked dimension before preprocessing / buffering: an
element at ``(i1, i2, i3)`` is relocated by a rotation of the lane index
that varies with the time step, so a persistently dense lane's surplus is
spread over all lanes across time.

In hardware the paper implements the rotation with ``K0/4`` local 4x4
crossbars instead of a full ``K0 x K0`` crossbar and observes that "this
localization does not impact the load balancing".  We therefore simulate
the idealized full rotation ``l -> (l + t) mod K0`` (the behaviour the
localized network is shown to match) while the cost model charges for the
local 4x4 crossbars the paper builds.

Because the rotation is a function of the shared (t, k) coordinates only,
A and B are permuted identically and operand pairing is preserved.
"""

from __future__ import annotations

import numpy as np

#: Size of the hardware rotation group (K0/4 local 4x4 crossbars); the cost
#: model charges for crossbars of this size.
HARDWARE_GROUP = 4


def rotation_shuffle(mask: np.ndarray) -> np.ndarray:
    """Apply the rotation shuffle to a blocked mask ``[T, L, ...]``.

    Lane ``l`` of time step ``t`` receives the element originally blocked
    at lane ``(l + t) % L`` -- a one-lane rotation per time step.

    Returns a new array; the input is not modified.
    """
    mask = np.asarray(mask)
    t_steps, lanes = mask.shape[0], mask.shape[1]
    t = np.arange(t_steps)[:, None]
    return mask[t, (np.arange(lanes) + t) % lanes]
