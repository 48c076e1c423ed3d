"""Golden EMI readings, compared bit for bit.

Each entry is ``repr`` of the EMI and the pruned leaf count, at the default
schedule and at a vanishing penalty (lam=1e-9). The second reading keeps
nearly the whole grown tree, so every grown cell's counts enter the sum.
The values were recorded with the object-per-node partition that the flat
array core replaced; any change to a threshold, a count or the order of the
leaf sum shows here as an inequality, not as a drift inside a tolerance.

Samples: the six benchmark families, nominal and drifted by (0.15, 0.15), at
n in {2e3, 2e4}, as the joint (input, residual) sample (p=2) and as the pair
(first input, residual) (p=1); one sample with tied values; two Gaussian
pairs at n=2e5.
"""

import math

import numpy as np
import pytest

from helpers import gaussian_pair
from rivkit import JointSample, Schedule, SystemSpec, emi, residual_source
from rivkit.systems import FAMILIES

DEFAULT = Schedule()
VANISHING = Schedule(lam=1e-9)
DELTAS = {"nominal": (0.0, 0.0), "drifted": (0.15, 0.15)}

GOLDENS = {
    "linear-nominal-2000-p2": ("0.0", 1, "0.02296416229043728", 125),
    "linear-nominal-2000-p1": ("0.0", 1, "0.025970625155147208", 128),
    "linear-nominal-20000-p2": ("0.0", 1, "0.002397797417080516", 122),
    "linear-nominal-20000-p1": ("0.0", 1, "0.002657898725168659", 126),
    "linear-drifted-2000-p2": ("0.6288171751245175", 69, "0.6559332787025449", 128),
    "linear-drifted-2000-p1": ("0.28293625906555275", 37, "0.3067345950801999", 126),
    "linear-drifted-20000-p2": ("0.5169625022086142", 38, "0.6477576540797043", 128),
    "linear-drifted-20000-p1": ("0.22468215641704514", 16, "0.281082756467528", 126),
    "polynomial-nominal-2000-p2": ("0.0", 1, "0.02296416229043728", 125),
    "polynomial-nominal-2000-p1": ("0.0", 1, "0.025970625155147208", 128),
    "polynomial-nominal-20000-p2": ("0.0", 1, "0.002397797417080516", 122),
    "polynomial-nominal-20000-p1": ("0.0", 1, "0.002657898725168659", 126),
    "polynomial-drifted-2000-p2": ("0.4981978486025607", 69, "0.528865071303114", 127),
    "polynomial-drifted-2000-p1": ("0.23572077812773246", 51, "0.2707680217110956", 128),
    "polynomial-drifted-20000-p2": ("0.413930717307897", 43, "0.5168823333200382", 128),
    "polynomial-drifted-20000-p1": ("0.11694620189077605", 12, "0.23586848387409992", 126),
    "trigonometric-nominal-2000-p2": ("0.0", 1, "0.02296416229043728", 125),
    "trigonometric-nominal-2000-p1": ("0.0", 1, "0.025970625155147208", 128),
    "trigonometric-nominal-20000-p2": ("0.0", 1, "0.002397797417080516", 122),
    "trigonometric-nominal-20000-p1": ("0.0", 1, "0.002657898725168659", 126),
    "trigonometric-drifted-2000-p2": ("0.2135033015790359", 43, "0.24466926713083448", 128),
    "trigonometric-drifted-2000-p1": ("0.07667815601929218", 20, "0.11445677471141429", 127),
    "trigonometric-drifted-20000-p2": ("0.14877985499445975", 20, "0.23903596344129707", 125),
    "trigonometric-drifted-20000-p1": ("0.057848813146721176", 12, "0.09397019954200939", 126),
    "mlp-nominal-2000-p2": ("0.0", 1, "0.02296416229043728", 125),
    "mlp-nominal-2000-p1": ("0.0", 1, "0.025970625155147208", 128),
    "mlp-nominal-20000-p2": ("0.0", 1, "0.002397797417080516", 122),
    "mlp-nominal-20000-p1": ("0.0", 1, "0.002657898725168659", 126),
    "mlp-drifted-2000-p2": ("0.14709090323550503", 30, "0.1792734629485083", 126),
    "mlp-drifted-2000-p1": ("0.10905489021888815", 19, "0.1414621701251949", 128),
    "mlp-drifted-20000-p2": ("0.09015850302568387", 8, "0.16819660276872425", 123),
    "mlp-drifted-20000-p1": ("0.09921043575398583", 12, "0.1338708111428556", 126),
    "arx-nominal-2000-p2": ("0.0", 1, "0.024020795039821262", 128),
    "arx-nominal-2000-p1": ("0.0", 1, "0.026903767445556268", 127),
    "arx-nominal-20000-p2": ("0.0", 1, "0.002576229702565418", 125),
    "arx-nominal-20000-p1": ("0.0", 1, "0.003761362077260814", 126),
    "arx-drifted-2000-p2": ("0.33606241131334846", 52, "0.3592317494873627", 128),
    "arx-drifted-2000-p1": ("0.020597866557283784", 6, "0.058990624708545894", 127),
    "arx-drifted-20000-p2": ("0.25071016881123886", 26, "0.34776852615407083", 126),
    "arx-drifted-20000-p1": ("0.014611367674523007", 4, "0.041960046850576166", 126),
    "narx-nominal-2000-p2": ("0.0", 1, "0.025268748655795713", 127),
    "narx-nominal-2000-p1": ("0.0", 1, "0.027122704713181386", 128),
    "narx-nominal-20000-p2": ("0.0", 1, "0.002329580786178208", 122),
    "narx-nominal-20000-p1": ("0.0", 1, "0.0026197795096093938", 121),
    "narx-drifted-2000-p2": ("0.6868659988690109", 95, "0.7058051904769786", 127),
    "narx-drifted-2000-p1": ("0.8742552260960497", 77, "0.893535095673755", 126),
    "narx-drifted-20000-p2": ("0.549286128309022", 52, "0.6874880147164474", 128),
    "narx-drifted-20000-p1": ("0.7483459563036625", 46, "0.83258197391553", 128),
    "tied-2000": ("0.1546129537865662", 24, "0.18529317455919622", 109),
    "gaussian-0.3-200000": ("0.0", 1, "0.04510032653828157", 218),
    "gaussian-0.5-200000": ("0.04947010947245195", 4, "0.13494690141454813", 233),
}


def reading(sample):
    coarse, fine = emi(sample, DEFAULT), emi(sample, VANISHING)
    return (repr(coarse.emi), coarse.leaf_count, repr(fine.emi), fine.leaf_count)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("drift", sorted(DELTAS))
@pytest.mark.parametrize("n", [2000, 20000])
def test_family_readings_match_the_goldens(family, drift, n):
    joint = residual_source(SystemSpec(family, DELTAS[drift], seed=7))(n)
    first_input = JointSample(joint.data[:, [0, 2]], 1, 1)
    key = f"{family}-{drift}-{n}"
    assert reading(joint) == GOLDENS[key + "-p2"]
    assert reading(first_input) == GOLDENS[key + "-p1"]


def test_tied_sample_matches_the_golden():
    z = np.random.default_rng(31).normal(size=(2000, 2))
    pair = np.column_stack([z[:, 0], 0.5 * z[:, 0] + math.sqrt(0.75) * z[:, 1]])
    assert reading(JointSample(np.round(pair, 1), 1, 1)) == GOLDENS["tied-2000"]


@pytest.mark.parametrize("rho", [0.3, 0.5])
def test_large_gaussian_pairs_match_the_goldens(rho):
    assert reading(gaussian_pair(5, 200_000, rho)) == GOLDENS[f"gaussian-{rho}-200000"]
