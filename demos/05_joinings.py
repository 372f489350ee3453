"""Block-mass matrices for three joinings, light blocks, and the
trivialization contrast.

A joining of two towers is summarized at stage j by the mass it puts on
each block (level of the first tower) x (level of the second).  The
product spreads mass over the whole grid, a graph joining concentrates
it on a line, and an empirical matrix estimates a joining from one orbit
pair.  Light blocks (mass below eps times a level mass) measure how
powdery the joining is.
"""

from fractions import Fraction

from rankone import ConstructionSpec, build_stage
from rankone.joinings import (
    columns_and_F,
    empirical_joining,
    graph_blocks,
    light_blocks,
    product_blocks,
    trivialization_check,
)

ODO = ConstructionSpec.odometer()
ST2 = ConstructionSpec.staircase(h1=2)
ST3 = ConstructionSpec.staircase(h1=3)
CHA = ConstructionSpec.chacon()


def main():
    m = product_blocks(ST2, ST3, 2, 5)
    print(f"product blocks at stage 2: {m.h_a} x {m.h_b} grid, "
          f"each mass {m.mass_of([(0, 0)])}, residual {m.residual}")

    g = graph_blocks(ODO, 1, 1, 4)
    shown = {(z.z1, z.z2): str(v) for z, v in sorted(g.masses.items())}
    print(f"graph(k=1) odometer: masses {shown}")

    e = empirical_joining(ST2, ST3, 0, 0, 20000, 2, 10)
    print(f"empirical staircase pair, N=20000: {len(e.masses)} blocks, "
          f"residual {e.residual}")

    # light blocks: the graph is all heavy diagonal, the product flips to
    # all light just past the level mass
    diag = light_blocks(graph_blocks(ST2, 0, 3, 5), Fraction(1, 2))
    print(f"\ngraph(k=0) light mass at eps=1/2: {diag.covered_mass} "
          f"({diag.heavy_count} heavy blocks)")
    eps = m.level_mass_a
    print(f"product light mass at eps = level mass: "
          f"{light_blocks(m, eps).covered_mass}")
    print(f"product light mass just above:          "
          f"{light_blocks(m, eps * Fraction(101, 100)).covered_mass}")

    # conditioning on a diagonal strip: the product factorizes up to the
    # escape enclosure, the graph visibly does not
    p = product_blocks(ST2, CHA, 3, 5)
    Fp = columns_and_F(p, Fraction(1, 4), 0, [0, 1])
    A = build_stage(ST2, 3).levels_set([0])
    B = build_stage(CHA, 3).levels_set([0])
    rec = trivialization_check(p, Fp, A, B, 3)
    print(f"\nproduct: conditional {rec.conditional}, displayed sum in "
          f"[{rec.display_sum.lo}, {rec.display_sum.hi}], "
          f"gap enclosure lower bound {rec.display_gap.lo}")

    gg = graph_blocks(ODO, 0, 2, 4)
    Fg = columns_and_F(gg, Fraction(3, 4), 0, [0])
    lvl = build_stage(ODO, 2).levels_set([0])
    rec2 = trivialization_check(gg, Fg, lvl, lvl, 2)
    print(f"graph:   conditional {rec2.conditional} vs product reference "
          f"{rec2.reference}, gap {rec2.gap} > 0")


if __name__ == "__main__":
    main()
