"""The algebra that makes every construction here work, checked numerically.

A paired block maps two copies of a sphere chart to the scaled product
(C, D)/sqrt(2) on the unit sphere. Its frame carries five identities relating
C, D, the quarter-turn J, the alignment m = <JC, D>, and the gradient pairing
w. The residuals of all five vanish at every chart point; for the circle
block they collapse to single trig functions of u - v.
"""

import numpy as np

from minvar import clifford_frame, lemma_magic_residuals, standard_block


def sweep(block, count, seed):
    box = np.array(block.domain_box())
    rng = np.random.default_rng(seed)
    pts = rng.uniform(box[:, 0], box[:, 1], size=(count, len(box)))
    res = lemma_magic_residuals(block, pts)
    return np.max([res.res_a1, res.res_a2, res.res_b,
                   res.res_c, res.res_d, res.res_e], axis=-1)


def main():
    print("worst residual over 400 random chart points")
    print(f"{'block':<28} {'a1':>9} {'a2':>9} {'b':>9} "
          f"{'c':>9} {'d':>9} {'e':>9}")
    for dim in (1, 2, 3):
        for kind in ("stereographic", "trigonometric"):
            block = standard_block(dim, kind)
            worst = sweep(block, 400, seed=10 * dim)
            cells = " ".join(f"{w:9.2e}" for w in worst)
            print(f"S^{dim} {kind:<24} {cells}")

    print()
    print("circle block closed forms: D.JC = -cos(u-v), w = sin(u-v)/2")
    block = standard_block(1, "trigonometric")
    uv = np.array([(0.9, 0.2), (2.4, -1.1), (-0.3, 2.8)])
    fr = clifford_frame(block, uv)
    alignment = np.sum(fr.D * fr.JC, axis=-1)
    for (u, v), m, w in zip(uv, alignment, fr.w[:, 0]):
        print(f"  u={u:+.1f} v={v:+.1f}  D.JC={m:+.6f}  "
              f"-cos(u-v)={-np.cos(u - v):+.6f}  "
              f"w={w:+.6f}  sin(u-v)/2={0.5 * np.sin(u - v):+.6f}")


if __name__ == "__main__":
    main()
