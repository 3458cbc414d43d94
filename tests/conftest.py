from hypothesis import settings

from casense.config import BandConfig, Block, CaConfig, Comb, Scheme, validate

# Property tests draw the same examples on every run and carry no wall-clock
# deadline, so a loaded machine cannot fail them.
settings.register_profile("casense", derandomize=True, deadline=None)
settings.load_profile("casense")


def lattice_config(n, m, k, q, scheme):
    """Valid aggregated config on the bound-check lattice: spacing ratio = k,
    velocity-fusion constraint satisfied by construction."""
    df1 = 30e3
    df2 = k * df1
    t_cp2 = 1.33e-6
    t2 = 1 / df2 + t_cp2
    t1 = t2 * 24e9 / 5.9e9
    low_kind, high_kind = scheme.patterns
    low_pilot = Comb(k) if low_kind is Comb else Block(q)
    high_pilot = Comb(k) if high_kind is Comb else Block(q)
    return validate(
        CaConfig(
            low=BandConfig(5.9e9, df1, n, m, t1 - 1 / df1, low_pilot),
            high=BandConfig(24e9, df2, n, m, t_cp2, high_pilot),
            scheme=scheme,
            c0=3e8,
        )
    )
