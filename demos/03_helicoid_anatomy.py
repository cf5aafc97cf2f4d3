"""Why the multi-block helicoid is minimal: the operator-level ledger.

Three exact structures do the work. The induced metric determinant splits
into per-block means times a scalar P (so sqrt(det) is computable in closed
form); the angular coordinate is harmonic for the induced operator; and when
the Laplace-Beltrami operator hits one block of the immersion, its expansion
into six terms cancels to zero. This script prints each defect for a two-block
instance at random points.
"""

import numpy as np

from minvar import (
    GenHelicoidA,
    PitchVector,
    SamplePlan,
    build_immersion,
    helicoid_algebra,
    proof_terms,
    sample_points,
    standard_block,
    theta_harmonicity,
)


def main():
    spec = GenHelicoidA(pitch=PitchVector(0.8, (1.2, 0.7)),
                        blocks=(standard_block(2), standard_block(2)))
    imm = build_immersion(spec)
    pts, _ = sample_points(imm, SamplePlan(count=5, seed=3))

    print("two-block helicoid, params", imm.param_dim,
          "ambient", imm.ambient_dim)
    print(f"{'point':>5} {'det split':>10} {'inverse':>10} "
          f"{'theta harm':>11} {'divergence':>11} {'S1..S6 sum':>11}")
    # one batched call per check covers every point
    alg = helicoid_algebra(spec, pts)
    harm = theta_harmonicity(spec, pts)
    terms = [proof_terms(spec, t, pts) for t in range(1, len(spec.blocks) + 1)]
    cancel = np.max([pt.sum_norm for pt in terms], axis=0)
    for i in range(len(pts)):
        print(f"{i:>5} {alg.det_defect[i]:>10.2e} "
              f"{alg.inverse_defect[i]:>10.2e} "
              f"{harm.theta_laplacian[i]:>11.2e} "
              f"{harm.block_divergence[i]:>11.2e} {cancel[i]:>11.2e}")

    # the six terms are individually large; only their sum collapses
    first = terms[0]
    print("\nper-term norms at point 0 (block 1):")
    for name, vec in zip(("S1", "S2", "S3", "S4", "S5", "S6"), first.terms):
        print(f"  {name}: {np.linalg.norm(vec[0]):.4f}")
    print(f"  sum: {first.sum_norm[0]:.2e}  (scale {first.scale[0]:.4f})")


if __name__ == "__main__":
    main()
