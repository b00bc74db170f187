"""Cost of basic file operations (Section 5).

* ``SEQCOST(b) = s + r + b*ebt`` -- sequential access to b pages (with the
  ESM caveat that a file stored as a B+-tree costs random instead).
* ``RNDCOST(b) = b * (s + r + btt)`` -- random access to b pages.
* ``INDCOST(k)`` -- accessing OIDs for k random keys through a secondary
  B+-tree index, level by level through the c(n, m, r) approximation.
* ``RNGXCOST(fract) = fract * leaves(I) * (s + r + btt)`` -- a range query
  touching the given fraction of the key domain.
"""

from __future__ import annotations

import math

from repro.cost.approx import c_approx
from repro.storage.btree import BTreeParams
from repro.storage.disk import DiskParams


#: SEQCOST(b) and RNDCOST(b) are the disk's own formulas (one copy).
seqcost = DiskParams.seq_cost
rndcost = DiskParams.rnd_cost


def indcost(params: DiskParams, index: BTreeParams, k: float) -> float:
    """INDCOST(k): k random key probes through B+-tree index I.

    .. math::

        INDCOST(k) = \\Big(\\sum_{i=1}^{level(I)}
            \\lceil c(n_i, m_i, r_i) \\rceil\\Big) \\cdot RNDCOST(1)

    with :math:`n_i = leaves(I)/(2v\\ln 2)^{i-2}`,
    :math:`m_i = leaves(I)/(2v\\ln 2)^{i-1}`, :math:`r_1 = k` and
    :math:`r_i = c(n_{i-1}, m_{i-1}, r_{i-1})`.
    """
    if k <= 0:
        return 0.0
    fanout = 2.0 * index.v * math.log(2.0)
    total_nodes = 0.0
    r_i = float(k)
    for i in range(1, index.level + 1):
        n_i = index.leaves / (fanout ** (i - 2))
        m_i = index.leaves / (fanout ** (i - 1))
        touched = c_approx(n_i, m_i, r_i)
        total_nodes += math.ceil(touched)
        r_i = touched
    return total_nodes * rndcost(params, 1)


def rngxcost(params: DiskParams, index: BTreeParams, fract: float) -> float:
    """RNGXCOST(fract) = fract * leaves(I) * (s + r + btt)."""
    if fract <= 0:
        return 0.0
    fract = min(1.0, fract)
    return fract * index.leaves * (params.s + params.r + params.btt)
