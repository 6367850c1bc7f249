"""Survey the fixed components for the order-two family.

For the degree-2 cover of the line branched at 2g+2 points, the script
tabulates the components of the fixed variety indexed by the twisting
integer c, their dimensions, the boundary classes sitting on each, and
how the components intersect.  It then shows the two twist operations
acting on concrete boundary classes.
"""

from fixloc import (
    double_class,
    flagged_class,
    hyperelliptic_profile,
    hyperelliptic_report,
    minus_one,
    sim_e_step,
    sim_o_step,
)

for g in (2, 3):
    rep = hyperelliptic_report(g)
    print(f"== genus {g} (branch points: {2 * g + 2}, fixed determinant "
          f"degree {rep.d}) ==")
    for comp in rep.components:
        print(f"   component c={comp.c}: dimension {comp.dimension}, "
              f"{len(comp.boundary_classes)} boundary classes, "
              f"normal={comp.normal}")
    for (a, b), shared in rep.pairwise_intersections.items():
        print(f"   {a} meets {b} in {len(shared)} classes")
    deepest = sorted(sorted(q) for q in rep.global_intersection)
    print(f"   classes on every component: {deepest}")
    print(f"   distinct boundary classes across all components: "
          f"{rep.boundary_class_count}")
    print()

# twists acting on boundary classes, genus 2
g = 2
profile = hyperelliptic_profile(g)
q = frozenset({0, 1})
dbl = double_class(g, q)
flg = flagged_class(g, q)

print("twists on the genus-2 boundary classes attached to Q = {0, 1}:")
image = sim_e_step(dbl, profile)
print(f"   line twist sends the doubled class to the flagged one: "
      f"{image == flg}")

neg = sim_o_step(dbl, minus_one(profile.n), profile)
complement = double_class(g, frozenset(range(2 * g + 2)) - q)
print(f"   pullback twist by -1 swaps Q with its complement: "
      f"{neg == complement}")
print(f"   the flagged class is fixed by that twist: "
      f"{sim_o_step(flg, minus_one(profile.n), profile) == flg}")
