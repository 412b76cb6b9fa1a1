"""Experiments as library functions: a report and tables, and no files."""

from picmod.experiments import run_crosstalk, run_sweep


def test_experiments_return_tables_and_write_no_files(config_1013, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # At 1013 nm scenario C composes to -61.4 dB against a -68 dB target.
    report, tables = run_crosstalk(config_1013, "C")
    assert not report.passed
    assert list(tables) == ["crosstalk_C.csv"]
    report, tables = run_sweep(config_1013, [0, 1])
    assert report.passed
    assert list(tables) == ["sweep_channel_0.csv", "sweep_channel_1.csv"]
    assert list(tmp_path.iterdir()) == []
