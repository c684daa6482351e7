import numpy as np
import pytest

from freecert.sdpcore import AffineConstraint, SdpInstance


def povm_sdp_instance(G):
    """The see-saw measurement update as a block-diagonal SDP for sdpcore:
    the effects are the m diagonal n x n blocks of one mn x mn matrix,
    the off-diagonal blocks vanish, the blocks sum to I, and the objective
    entries are the entries of G_i. sdpcore reads an objective entry c at
    (r, s) as Re sum c b[r, s], so this instance maximizes
    sum_i tr(conj(G_i) M_i): pass conj(G) to maximize sum_i tr(G_i M_i)."""
    m = len(G)
    n = G[0].shape[0]
    constraints = []
    for bi in range(m):
        for bj in range(m):
            if bi == bj:
                continue
            for a in range(n):
                for b in range(n):
                    if bi < bj or a != b:  # hermitian closure adds the rest
                        constraints.append(AffineConstraint(
                            ((bi * n + a, bj * n + b, 1.0),), 0.0))
    for a in range(n):
        for b in range(n):
            entries = tuple((bi * n + a, bi * n + b, 1.0) for bi in range(m))
            constraints.append(AffineConstraint(entries,
                                                1.0 if a == b else 0.0))
    objective = []
    for bi in range(m):
        for a in range(n):
            for b in range(n):
                coef = G[bi][a, b]
                if abs(coef) > 1e-15:
                    objective.append((bi * n + a, bi * n + b, complex(coef)))
    return SdpInstance(m * n, constraints, tuple(objective))


@pytest.fixture
def povm_sdp():
    return povm_sdp_instance
