"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_parses(self):
        args = build_parser().parse_args(["table1"])
        assert args.command == "table1"

    def test_variant_restricted(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["place", "OTA1", "--variant", "Z"])

    def test_compare_scale_restricted(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "OTA1", "--scale", "huge"])

    def test_fold_has_no_relaxation_mode_flag(self, capsys):
        """Relaxation has one loop, so ``fold`` offers no mode switch."""
        with pytest.raises(SystemExit) as exc_info:
            main(["fold", "OTA1", "--batched-relax"])
        assert exc_info.value.code == 2
        assert "--batched-relax" in capsys.readouterr().err


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "OTA1" in out and "36" in out

    def test_place_and_save(self, tmp_path, capsys):
        out_file = tmp_path / "p.json"
        code = main(["place", "OTA1", "--variant", "B",
                     "--iterations", "50", "--out", str(out_file)])
        assert code == 0
        assert out_file.exists()
        assert "placed" in capsys.readouterr().out

    def test_route_with_saved_placement(self, tmp_path, capsys):
        place_file = tmp_path / "p.json"
        def_file = tmp_path / "r.def"
        main(["place", "OTA1", "--iterations", "50", "--out", str(place_file)])
        code = main(["route", "OTA1", "--placement", str(place_file),
                     "--def-out", str(def_file)])
        assert code == 0
        assert def_file.exists()
        out = capsys.readouterr().out
        assert "success=True" in out
        assert "post-layout" in out

    def test_export_spice(self, tmp_path, capsys):
        out_file = tmp_path / "ota2.sp"
        assert main(["export-spice", "OTA2", "--out", str(out_file)]) == 0
        text = out_file.read_text()
        assert ".END" in text and "MMN_IN_L" in text

    def test_fold_small(self, tmp_path, capsys):
        guide_file = tmp_path / "g.json"
        code = main(["fold", "OTA1", "--samples", "4", "--epochs", "2",
                     "--restarts", "2", "--guidance-out", str(guide_file)])
        assert code == 0
        assert guide_file.exists()
        out = capsys.readouterr().out
        assert "AnalogFold metrics" in out
        assert "runtime breakdown" in out
