"""Year alignment by per-pair lookups, the oracle for ``ingest.year_matrix``,
and a gapped network to align."""

import numpy as np

from rainmax.gev import GevParams
from rainmax.ingest import AnnualMaximaSeries, synth_dataset


def common_years(a: AnnualMaximaSeries, b: AnnualMaximaSeries) -> tuple[np.ndarray, np.ndarray]:
    """Both stations' maxima on the years they share, years ascending."""
    years = np.intersect1d(a.years, b.years)
    lookup_a = dict(zip(a.years.tolist(), a.values.tolist()))
    lookup_b = dict(zip(b.years.tolist(), b.values.tolist()))
    return (
        np.array([lookup_a[int(y)] for y in years]),
        np.array([lookup_b[int(y)] for y in years]),
    )


def gapped_network(seed: int, stations: int = 6, years: int = 40) -> list[AnnualMaximaSeries]:
    """Stations with staggered first years and a random quarter of their
    station-years dropped."""
    rng = np.random.default_rng(seed)
    spec = [(f"g{i}", GevParams(90.0, 20.0, 0.05)) for i in range(stations)]
    out = []
    for i, s in enumerate(synth_dataset(spec, years=years, seed=seed)):
        keep = rng.random(years) >= 0.25
        years_kept = (s.years + 3 * i)[keep]
        out.append(AnnualMaximaSeries(s.station_id, years_kept, s.values[keep]))
    return out
