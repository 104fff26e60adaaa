"""The thread record of `tests/family.py` and its `--compare` warning, on a
one-plant table in place of the 400-plant run."""

import json

import family


def _run(monkeypatch, capsys, argv, threads):
    monkeypatch.setattr(family, "run_family", lambda: {
        "1000": {name: {"exit": 0, "stdout": "report\n"}
                 for name in family.COMMANDS}})
    for var in family.THREAD_VARS:
        monkeypatch.setenv(var, threads)
    assert family.main(argv) == 0
    return capsys.readouterr().out


def test_family_warns_once_when_thread_settings_differ(
        tmp_path, monkeypatch, capsys):
    one, two = str(tmp_path / "one.json"), str(tmp_path / "two.json")
    _run(monkeypatch, capsys, [one], "1")
    with open(one) as fh:
        assert set(json.load(fh)["threads"].values()) == {"1"}
    out = _run(monkeypatch, capsys, [two, "--compare", one], "1")
    assert "warning" not in out and f"0 changes against {one}" in out
    out = _run(monkeypatch, capsys, [two, "--compare", one], "2")
    assert out.count("warning: BLAS thread settings differ") == 1
    assert f"0 changes against {one}" in out


def test_family_compares_with_a_run_that_kept_no_thread_record(
        tmp_path, monkeypatch, capsys):
    old, new = str(tmp_path / "old.json"), str(tmp_path / "new.json")
    _run(monkeypatch, capsys, [old], "1")
    with open(old) as fh:
        plants = json.load(fh)["plants"]
    with open(old, "w") as fh:
        json.dump(plants, fh)
    out = _run(monkeypatch, capsys, [new, "--compare", old], "1")
    assert out.count("not recorded") == 1
    assert f"0 changes against {old}" in out
