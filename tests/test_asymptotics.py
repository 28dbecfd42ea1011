import numpy as np
import pytest

from stimcf import build_preset, build_domain
from stimcf import weak_flow as wf
from stimcf import asymptotics as asym


@pytest.fixture(scope="module")
def flat_deep():
    # domain reaching |x| = 24 cleanly so lambda = 1/8 pulls back inside
    ids = build_preset("flat", n=2)
    dom = build_domain(ids, {"radius": 1.0}, L=9.4, alpha=1.9, h=1 / 64.)
    rec = wf.epsilon_sweep(dom, eps_last=1e-4)
    wf.detect_jumps(rec)
    return rec


def test_blowdown_flat_exact_after_normalization(flat_deep):
    # u already equals the model: errors at quadrature/regularization level
    bt = asym.blowdown_compare(flat_deep, [1.0, 0.5, 0.25, 0.125])
    assert np.all(bt.errors < 5e-3)
    assert bt.errors[-1] < 1e-3


def test_blowdown_requires_domain_coverage(flat_deep):
    with pytest.raises(wf.FlowError, match="insufficient"):
        asym.blowdown_compare(flat_deep, [1.0, 1.0 / 64.0])
