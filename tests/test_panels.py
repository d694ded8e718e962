"""The panel files of every figure: their names, their headers, and each
cell against the CSV field of the grid row it plots."""

import pytest

from teleportsim.metrics import MetricsRecord
from teleportsim.sweep import (COLUMNS, _format_row, emit_figure_data,
                               grid_points, parse_config)

# each figure's files, with the protocol and metric each plots, its fixed
# axis and the cuts on that axis
GAMMA_CUTS = ("gamma", ("0", "0.038", "0.06"))
ALPHA_CUTS = ("alpha", ("0", "0.5", "1"))
FIGURES = {
    "fig2": ([("fig2_fidelity_avg.csv", "scrambling", "fidelity_avg"),
              ("fig2_purity_avg.csv", "scrambling", "purity_avg"),
              ("fig2_neg_cut34.csv", "scrambling", "neg_cut34")], GAMMA_CUTS),
    "fig3": ([("fig3_fidelity_avg.csv", "swap", "fidelity_avg"),
              ("fig3_purity_avg.csv", "swap", "purity_avg"),
              ("fig3_neg_cut34.csv", "swap", "neg_cut34")], GAMMA_CUTS),
    "fig4": ([("fig4_delta_E_U_scrambling.csv", "scrambling", "delta_E_U"),
              ("fig4_delta_E_M_scrambling.csv", "scrambling", "delta_E_M"),
              ("fig4_delta_E_U_swap.csv", "swap", "delta_E_U"),
              ("fig4_delta_E_M_swap.csv", "swap", "delta_E_M")], GAMMA_CUTS),
    "fig7": ([("fig7_fidelity_avg_scrambling.csv", "scrambling", "fidelity_avg"),
              ("fig7_purity_avg_scrambling.csv", "scrambling", "purity_avg"),
              ("fig7_fidelity_avg_swap.csv", "swap", "fidelity_avg"),
              ("fig7_purity_avg_swap.csv", "swap", "purity_avg")], ALPHA_CUTS),
}
HEADER = [
    "# teleportation-protocol sweep",
    "# protocols=scrambling,swap",
    "# alpha_grid=0.0,1.0,3",
    "# gamma_grid=0.0,0.06,31",
    "# dt=0.5 log_base=2 rate_convention=kraus",
    "# alpha, gamma dimensionless; gamma in units of inverse gate time",
]
# (scrambling, alpha = 0.5, gamma = 0.038): plotted by fig2, fig4 and fig7
ERROR_ROW = 31 + 19


@pytest.fixture(scope="module")
def grid():
    """Grid-ordered rows of fabricated records on a grid holding every cut,
    each metric field distinct, and one error row."""
    cfg = parse_config("dt = 0.5\nalpha_count = 3\n")
    rows = []
    for i, point in enumerate(grid_points(cfg)):
        if i == ERROR_ROW:
            rows.append(_format_row(None, point, cfg, error="RuntimeError:boom"))
            continue
        values = {c: (-1) ** k * (10 * i + k + 0.123456789)
                  for k, c in enumerate(COLUMNS[3:13])}
        rows.append(_format_row(MetricsRecord(*point, **values), point, cfg))
    return cfg, rows


@pytest.mark.parametrize("figure_id", sorted(FIGURES))
def test_every_panel_cell_is_its_grid_rows_field(tmp_path, grid, figure_id):
    cfg, rows = grid
    records = [dict(zip(COLUMNS, row.split(","))) for row in rows]
    files, (fixed, cuts) = FIGURES[figure_id]
    free = "gamma" if fixed == "alpha" else "alpha"
    paths = emit_figure_data(rows, figure_id, str(tmp_path), cfg)
    assert paths == [str(tmp_path / name) for name, _, _ in files]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        name for name, _, _ in files)
    nan_cells = 0
    for name, protocol, metric in files:
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[:6] == HEADER
        assert lines[6] == f"{free}," + ",".join(f"{metric}@{fixed}={c}"
                                                 for c in cuts)
        # one line per free-axis grid value, in grid order
        xs = [r[free] for r in records if r["protocol"] == protocol
              and r[fixed] == cuts[0]]
        assert [line.split(",")[0] for line in lines[7:]] == xs
        for line in lines[7:]:
            x, *cells = line.split(",")
            for cut, cell in zip(cuts, cells, strict=True):
                [row] = [r for r in records if r["protocol"] == protocol
                         and r[fixed] == cut and r[free] == x]
                assert cell == (row[metric] or "nan")
                nan_cells += cell == "nan"
    # the error row is plotted once in each scrambling panel
    assert nan_cells == sum(protocol == "scrambling" for _, protocol, _ in files)


def test_rows_must_be_one_per_grid_point(tmp_path, grid):
    cfg, rows = grid
    with pytest.raises(ValueError, match=f"^{len(rows) - 1} rows for {len(rows)} "
                                         f"grid points$"):
        emit_figure_data(rows[:-1], "fig7", str(tmp_path), cfg)
    assert not list(tmp_path.iterdir())
