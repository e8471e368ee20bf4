"""An independent floating-point evaluation of the eta invariant's defining sum.

For the space form S^(4 nu - 1) / tau(H), twisted by sigma and evaluated on
the bundle rho, the invariant is

    (1/|H|) * sum over h in H - {1} of Tr sigma(h) * Tr rho(h) / det(I - tau(h)).

Here every factor is built in complex floats with numpy straight from the
group law: the summand gamma_u of tau is the explicit matrix
diag(z^(ua), z^(-ua)) @ [[0, (-1)^u], [1, 0]]^b at xi^a J^b, z = exp(2 pi i / (ell/2)),
the order-4 subgroups are the powers of their generators' matrices, and theta_i
and delta^r are given by their defining values.  Only the element enumeration
comes from ``qko.oracles``; no cyclotomic arithmetic, conjugacy class or
determinant of the library is used.
"""

import numpy as np
import pytest

from qko.eta import SpaceForm, eta_pair
from qko.groups import FpfRep, GroupParams, Subgroup, delta_power, theta
from qko.oracles import quaternion_group

TAUS = ((1, 1), (1, 3), (3, 5, 1))
GENERATORS = {Subgroup.GEN_I: lambda ell: (ell // 8, 0),
              Subgroup.GEN_J: lambda ell: (0, 1),
              Subgroup.GEN_XI_J: lambda ell: (1, 1)}


def _gamma(ell, u, a, b):
    z = np.exp(2j * np.pi * u * a / (ell // 2))
    m = np.diag([z, 1 / z])
    if b:
        m = m @ np.array([[0, (-1) ** (u % 2)], [1, 0]])
    return m


def _subgroup_mask(ell, elements, which):
    """Which enumerated elements lie in the subgroup: the full group, or the
    powers of the generator under the faithful representation gamma_1."""
    if which is Subgroup.FULL:
        return np.ones(len(elements), dtype=bool)
    gen = _gamma(ell, 1, *GENERATORS[which](ell))
    powers = [np.eye(2)]
    while not np.allclose(powers[-1] @ gen, np.eye(2)):
        powers.append(powers[-1] @ gen)
    assert len(powers) == 4
    return np.array([any(np.allclose(_gamma(ell, 1, a, b), p) for p in powers)
                     for a, b in elements])


def _traces(ell, elements):
    """The class functions' values at every element, by their definitions."""
    eighth = ell // 8
    det_gamma1 = np.array([np.linalg.det(np.eye(2) - _gamma(ell, 1, a, b))
                           for a, b in elements])
    out = {}
    for i in (1, 2):
        out[f"theta{i}"] = np.array(
            [ell / 4 if b == 0 and a in (eighth, 3 * eighth)
             else -2.0 if b == 1 and a % 2 == i - 1 else 0.0
             for a, b in elements])
    for r in (1, 2, 3):
        out[f"delta{r}"] = det_gamma1 ** r
    return out


def _det_I_minus_tau(ell, summands, a, b):
    n = 2 * len(summands)
    tau = np.zeros((n, n), dtype=complex)
    for k, u in enumerate(summands):
        tau[2 * k:2 * k + 2, 2 * k:2 * k + 2] = _gamma(ell, u, a, b)
    return np.linalg.det(np.eye(n) - tau)


@pytest.mark.parametrize("ell", [8, 16, 32, 64])
def test_eta_pair_against_float_defining_sum(ell):
    params = GroupParams(ell)
    elements = [(g.a, g.b) for g in quaternion_group(params).elements]
    nonidentity = np.array([(a, b) != (0, 0) for a, b in elements])
    traces = _traces(ell, elements)
    exact_chars = {"theta1": theta(1, params), "theta2": theta(2, params),
                   **{f"delta{r}": delta_power(r, params) for r in (1, 2, 3)}}
    ones = np.ones(len(elements))
    cases = 0
    for summands in TAUS:
        inv_det = np.array([0 if (a, b) == (0, 0) else 1 / _det_I_minus_tau(ell, summands, a, b)
                            for a, b in elements])
        for which in Subgroup:
            mask = _subgroup_mask(ell, elements, which) & nonidentity
            order = mask.sum() + 1
            space = SpaceForm(params, which, FpfRep(params, summands))
            for sigma in exact_chars:
                for bundle in (None, *exact_chars):
                    rho = ones if bundle is None else traces[bundle]
                    total = (traces[sigma] * rho * inv_det)[mask].sum() / order
                    exact = eta_pair(space, exact_chars[sigma],
                                     exact_chars.get(bundle))
                    assert abs(total - float(exact)) < 1e-9, (summands, which, sigma, bundle)
                    cases += 1
    assert cases == len(TAUS) * 4 * 5 * 6
