"""The thread record of `tests/family.py`, its `--compare` warning, label
summary and exit status, on small plant tables in place of the 400-plant
run."""

import json

import family


def _table(stdouts, code=0):
    """A plant table whose every command prints stdouts[seed] and exits
    with `code`."""
    return {seed: {name: {"exit": code, "stdout": text}
                   for name in family.COMMANDS}
            for seed, text in stdouts.items()}


def _run(monkeypatch, capsys, argv, threads, table=None, status=0):
    table = table or _table({"1000": "report\n"})
    monkeypatch.setattr(family, "run_family", lambda: table)
    for var in family.THREAD_VARS:
        monkeypatch.setenv(var, threads)
    assert family.main(argv) == status
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


def test_family_summarizes_each_label_and_fails_on_an_exit_change(
        tmp_path, monkeypatch, capsys):
    old, new = str(tmp_path / "old.json"), str(tmp_path / "new.json")
    _run(monkeypatch, capsys, [old], "1", _table(
        {"1000": "  oracle norm  2.0\n  pass  chain\n",
         "1097": "  oracle norm  4.0\n  pass  chain\nverdict: PASS\n"}))
    moved = _table(
        {"1000": "  oracle norm  2.2\n  pass  chain\n",
         "1097": "  oracle norm  4.1\n  FAIL  chain\nverdict: FAIL\n"})
    out = _run(monkeypatch, capsys, [new, "--compare", old], "1", moved)
    lines = out.splitlines()
    # plant 1097's two moved non-numeric lines count as one plant
    head = lines.index(f"16 changes against {old}")
    assert lines[head + 1:head + 3] == [
        "analyze: oracle norm: 2 plants changed, "
        "largest relative move 9.1e-02",
        "analyze: other lines: 1 plants changed, not numeric"]
    assert len(lines) == head + 1 + 8 + 16
    moved["1097"]["analyze"]["exit"] = 2
    out = _run(monkeypatch, capsys, [new, "--compare", old], "1", moved, 1)
    assert "1097 analyze: exit 0 -> 2" in out
