"""The sweep options are declared once, in ``cli._FIELD_PARSERS``: each is
an ``ExperimentConfig`` field, a config key and a flag, and a flag and a
config line of the same value build the same config."""

import dataclasses

import pytest

from ris2x2 import cli


def _built_config(monkeypatch, argv):
    """The ExperimentConfig that ``main(argv)`` builds, caught at its
    validation, before any work."""
    built = []

    def caught(cfg):
        built.append(cfg)
        raise ValueError("caught")

    monkeypatch.setattr(cli.ExperimentConfig, "validate", caught)
    assert cli.main(argv) == 2
    return built[0]


def test_every_option_is_a_config_field_and_every_field_an_option():
    fields = [f.name for f in dataclasses.fields(cli.ExperimentConfig)]
    assert list(cli._FIELD_PARSERS) == fields


@pytest.mark.parametrize(
    "name, text, other",
    [
        ("snr_db_min", "-3", "-4"),
        ("snr_db_max", "12", "20"),
        ("snr_db_step", "0.5", "2"),
        ("threshold_db", "3", "-2"),
        ("trials", "5000", "3000"),
        ("seed", "7", "8"),
        ("schemes", " J2I2 ,alt", "j1i1"),
        ("out", "a.csv", "b.csv"),
        # --svg is a switch: it turns the chart on, over a file's "no" too
        ("svg", "yes", "no"),
    ],
)
def test_a_flag_and_a_config_line_build_the_same_config(tmp_path, monkeypatch, name, text, other):
    flag = ["--" + name.replace("_", "-")] + ([] if name == "svg" else [text])
    cfg = tmp_path / "run.cfg"
    by_flag = _built_config(monkeypatch, ["outage", *flag])
    cfg.write_text(f"{name}={text}\n")
    by_file = _built_config(monkeypatch, ["outage", "--config", str(cfg)])
    assert by_flag == by_file
    assert getattr(by_flag, name) != getattr(cli.ExperimentConfig(), name)
    # the flag beats the file, and the file the built-in default
    cfg.write_text(f"{name}={other}\n")
    assert _built_config(monkeypatch, ["outage", "--config", str(cfg), *flag]) == by_flag
    if name in ("trials", "seed"):
        want = dataclasses.replace(cli.ExperimentConfig(), **{name: getattr(by_flag, name)})
        assert _built_config(monkeypatch, ["gain", *flag]) == want
