"""High-precision reference for the negativity columns of tests/data/pod_baseline.csv.

The canonical pod run (helpers.pod_scenario) is a free particle in an Ohmic
bath, whose one unstable mode amplifies double-precision roundoff in a dense
partially transposed spectrum.  This script recomputes both 1|rest
log-negativities with mpmath at 50 significant digits, independently of the
package's numerics:

* K is assembled from the model parameters in mpmath, and the flow is
  S(t) = expm(Omega K t) by mpmath's own matrix exponential;
* the physical part of the initial covariance is diagonal (coherent
  particle, thermal bath), so the mode-0 reduction of either split needs
  only two rows of S(t): (x_1, p_1) for the particle, and for the collective
  mode X = sum_i m_i x_i / M with conjugate momentum P = sum_i p_i;
* the global state is pure (purified bath), so with nu = sqrt(det sigma_red)
  E_N = log2(2 nu + 2 sqrt(nu^2 - 1/4)) (Adesso & Illuminati, J. Phys. A
  40, 7821 (2007)), and purity = 1 / (2 nu).

Values below the package's NEGATIVITY_FLOOR are written as 0, the same
convention the package applies.  Run from the repository root:

    PYTHONPATH=src python tests/reference_pod_negativity.py           # rewrite the two columns
    PYTHONPATH=src python tests/reference_pod_negativity.py --check   # compare only

It rewrites only the neg_12 and neg_SpEp fields of each row; the t and purity
fields stay byte-identical, and the script prints how far the recorded
purities lie from the reference ones.  With --check it exits 1 when a
recorded negativity lies more than NEG_TOL, or a recorded purity more than
PURITY_TOL, from the reference.
"""

import argparse
import os
import sys

import mpmath as mp

sys.path.insert(0, os.path.dirname(__file__))

from helpers import pod_scenario  # noqa: E402

from qbm_structures.gaussian import NEGATIVITY_FLOOR  # noqa: E402

PATH = os.path.join(os.path.dirname(__file__), "data", "pod_baseline.csv")
DIGITS = 50
GUARD_DIGITS = 20  # absorbs the growth of the unstable mode and the squarings of expm
NEG_TOL = 1e-12
PURITY_TOL = 1e-10


def model_matrices(cfg):
    """Omega K and the diagonal of the physical initial covariance, in mpmath."""
    p = cfg.model
    if p.potential != "free":
        raise SystemExit("the reference covers the free-particle canonical run only")
    n = p.n_modes
    K = mp.zeros(2 * n, 2 * n)
    K[n, n] = 1 / mp.mpf(p.m1)
    temp = mp.mpf(cfg.bath_temperature)
    sigma = [1 / (2 * mp.mpf(p.m1))] + [None] * (n - 1) + [mp.mpf(p.m1) / 2] + [None] * (n - 1)
    for i, (m, w, kappa) in enumerate(p.bath, start=1):
        m, w, kappa = mp.mpf(m), mp.mpf(w), mp.mpf(kappa)
        K[n + i, n + i] = 1 / m
        K[i, i] = m * w**2
        K[0, i] = K[i, 0] = p.coupling_sign * kappa
        coth = mp.coth(w / (2 * temp)) if temp > 0 else mp.mpf(1)
        sigma[i] = coth / (2 * m * w)
        sigma[n + i] = m * w * coth / 2
    omega = mp.zeros(2 * n, 2 * n)
    for i in range(n):
        omega[i, n + i] = 1
        omega[n + i, i] = -1
    return omega * K, sigma


def split_rows(cfg):
    """Mode-0 (position, momentum) coefficient rows over (x.., p..) for both splits."""
    masses = [mp.mpf(m) for m in cfg.model.masses]
    n = len(masses)
    particle = ([1] + [0] * (2 * n - 1), [0] * n + [1] + [0] * (n - 1))
    total = sum(masses)
    collective = ([m / total for m in masses] + [0] * n, [0] * n + [1] * n)
    return particle, collective


def reduced_nu(S, sigma, rows):
    """Symplectic eigenvalue of the mode-0 reduction along the given coefficient rows."""
    dim = len(sigma)
    gx = [mp.fsum(rows[0][k] * S[k, j] for k in range(dim)) for j in range(dim)]
    gp = [mp.fsum(rows[1][k] * S[k, j] for k in range(dim)) for j in range(dim)]
    xx = mp.fsum(gx[j] ** 2 * sigma[j] for j in range(dim))
    pp = mp.fsum(gp[j] ** 2 * sigma[j] for j in range(dim))
    xp = mp.fsum(gx[j] * gp[j] * sigma[j] for j in range(dim))
    return mp.sqrt(xx * pp - xp**2)


def log_negativity(nu):
    neg = mp.log(2 * nu + 2 * mp.sqrt(max(nu**2 - mp.mpf(1) / 4, 0)), 2)
    return mp.mpf(0) if neg < NEGATIVITY_FLOOR else neg


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="compare with the file instead of rewriting it")
    args = parser.parse_args()

    mp.mp.dps = DIGITS + GUARD_DIGITS
    cfg = pod_scenario()
    generator, sigma = model_matrices(cfg)
    splits = split_rows(cfg)

    with open(PATH, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header, body = lines[0], lines[1:]
    if header != "t,purity_1,purity_Sp,neg_12,neg_SpEp" or len(body) != len(cfg.times):
        raise SystemExit(f"{PATH}: unexpected layout")

    out, dev_purity, dev_neg = [header], 0.0, 0.0
    for line, t in zip(body, cfg.times):
        fields = line.split(",")
        if float(fields[0]) != t:
            raise SystemExit(f"{PATH}: time {fields[0]} does not match the scenario grid")
        S = mp.expm(generator * mp.mpf(t))
        nus = [reduced_nu(S, sigma, rows) for rows in splits]
        purities = [1 / (2 * nu) for nu in nus]
        negs = [log_negativity(nu) for nu in nus]
        dev_purity = max(dev_purity, *(abs(float(f) - float(v)) for f, v in zip(fields[1:3], purities)))
        dev_neg = max(dev_neg, *(abs(float(f) - float(v)) for f, v in zip(fields[3:5], negs)))
        out.append(",".join(fields[:3] + [f"{float(v):.17g}" for v in negs]))
        print(f"t={t:.6g}  neg_12={mp.nstr(negs[0], 15)}  neg_SpEp={mp.nstr(negs[1], 15)}")

    print(f"recorded purities vs reference: max |delta| {dev_purity:.3e}")
    print(f"recorded negativities vs reference: max |delta| {dev_neg:.3e}")
    if args.check:
        if dev_neg > NEG_TOL or dev_purity > PURITY_TOL:
            sys.exit(f"{PATH}: deviation exceeds the tolerance (negativity {NEG_TOL:g}, purity {PURITY_TOL:g})")
        return
    with open(PATH, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")
    print(f"wrote {PATH}")


if __name__ == "__main__":
    main()
