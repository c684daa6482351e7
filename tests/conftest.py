import numpy as np
import pytest

from freecert.sdpcore import SdpInstance


def povm_sdp_instance(G):
    """The see-saw measurement update as a block-diagonal SDP for sdpcore:
    the effects are the m diagonal n x n blocks of one mn x mn matrix. The
    off-diagonal blocks form one tie class pinned to 0, and entry (a, b) of
    every block joins one sum class, which adds up to I[a, b]. The
    objective entries are the entries of G_i. sdpcore reads an objective
    entry c at (r, s) as Re sum c b[r, s], so this instance maximizes
    sum_i tr(conj(G_i) M_i): pass conj(G) to maximize sum_i tr(G_i M_i)."""
    m = len(G)
    n = G[0].shape[0]
    block = np.arange(m * n) // n
    within = np.arange(m * n) % n
    labels = np.where(block[:, None] == block[None, :],
                      1 + within[:, None] * n + within[None, :], 0)
    rhs = [0.0] + list(np.eye(n).ravel())
    objective = []
    for bi in range(m):
        for a in range(n):
            for b in range(n):
                coef = G[bi][a, b]
                if abs(coef) > 1e-15:
                    objective.append((bi * n + a, bi * n + b, complex(coef)))
    return SdpInstance(labels, rhs, [False] + [True] * (n * n),
                       tuple(objective))


@pytest.fixture
def povm_sdp():
    return povm_sdp_instance
