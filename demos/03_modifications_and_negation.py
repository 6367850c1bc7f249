"""Two natural moves on the numeric invariants.

First, elementary modifications along a special orbit: chains of these
realize any shift of one exponent while the other is held fixed, and
the closed form `gamma_apply` performs the whole chain at once.
Second, for even order, negating the chosen square root of the lifted
determinant: an involution that re-seats the exponents and flips the
sign marker.  Both moves are shown side by side with their downstairs
effect.
"""

import random

from fixloc import (
    FIRST,
    DeterminantLift,
    FlagSelector,
    PLUS,
    Rank2EqData,
    elementary_modification,
    enumerate_lambda,
    gamma_apply,
    hyperelliptic_profile,
    make_profile,
    parabolic_zeta2,
    to_parabolic,
    zeta2_apply,
    zeta2_partition,
)
from fixloc.graded import hyperelliptic_delta

profile = make_profile(6, [("a", 2), ("b", 3)], genus_base=1)
det = DeterminantLift(residues={"a": 1, "b": 1}, degree=5, lift_sign=PLUS)
data = Rank2EqData(numeric=enumerate_lambda(det, profile)[0], det=det)
print(f"start: exponents {data.numeric}, det degree {data.det.degree}")

# one step at a time along orbit a, keeping the first exponent
step = data
for i in range(3):
    step = elementary_modification(step, profile, "a", FIRST)
    print(f"  after {i + 1} step(s) at a: {step.numeric}, det degree {step.det.degree}")

# same thing in one stroke
flags = FlagSelector(choice={"a": FIRST, "b": FIRST})
jump = gamma_apply(data, profile, {"a": 3, "b": 0}, flags)
assert jump == step
print("closed form agrees with the three single steps\n")

# --- negation of the square-root lift, on the order-two family ---
g = 2
hprofile = hyperelliptic_profile(g)
hdet = hyperelliptic_delta(g, 0)
rng = random.Random(5)
numeric = rng.choice(enumerate_lambda(hdet, hprofile))
hdata = Rank2EqData(numeric=numeric, det=hdet)

flipped = zeta2_apply(hdata, hprofile)
print(f"negation on {dict(list(numeric.items())[:3])}... :")
print(f"  orbit behaviour: {zeta2_partition(numeric, hprofile)}")
print(f"  sign marker: {hdata.det.lift_sign} -> {flipped.det.lift_sign}")
assert zeta2_apply(flipped, hprofile) == hdata  # involution

# the downstairs transform commutes with the correspondence
left = to_parabolic(flipped, hprofile)
right = parabolic_zeta2(to_parabolic(hdata, hprofile), hprofile)
assert left == right
print("negation commutes with the downstairs correspondence")
