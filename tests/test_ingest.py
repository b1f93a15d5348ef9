"""Wild-dialect ingestion: parser, symmetry inference, autobench, eval.

Covers the circuit-zoo pipeline end to end: every netlist in
``tests/corpus/`` must parse, flatten, classify, and route with zero
``*.SYMNET`` / ``*.NETTYPE`` hints, and every malformed input must fail
with a typed error carrying file/line context.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import generic_40nm, place_benchmark
from repro.core.dataset import route_and_measure
from repro.io import ingest_file, ingest_spice, wild_to_circuit
from repro.io.ingest import (
    classify_model,
    parse_si_value,
    parse_wild_spice,
    pick_top_cell,
    size_to_microns,
)
from repro.io.spice import circuit_to_spice, spice_to_circuit
from repro.netlist import Circuit, MOSFET, MOSType, Net, NetType
from repro.netlist.autobench import classify_supplies, synthesize_testbench
from repro.netlist.symmetry import apply_symmetry, infer_symmetry
from repro.reliability.errors import IngestError, SpiceParseError
from repro.router.guidance import uniform_guidance

from tests.test_obs_golden import check_golden, schema_of

CORPUS = Path(__file__).parent / "corpus"
CORPUS_FILES = sorted(CORPUS.glob("*.sp"))


class TestSiValues:
    @pytest.mark.parametrize("token,expected", [
        ("2u", 2e-6), ("2U", 2e-6), ("300f", 300e-15), ("12K", 12e3),
        ("1.5MEG", 1.5e6), ("4e-15", 4e-15), ("0.18", 0.18),
        ("-3m", -3e-3), ("2.5n", 2.5e-9),
    ])
    def test_suffixes(self, token, expected):
        assert parse_si_value(token) == pytest.approx(expected)

    def test_bad_number_raises_typed(self):
        with pytest.raises(SpiceParseError):
            parse_si_value("abc", line_no=7)

    def test_bad_suffix_raises_typed(self):
        with pytest.raises(SpiceParseError, match="unknown unit suffix"):
            parse_si_value("3xyz")

    @pytest.mark.parametrize("token,microns", [
        ("2u", 2.0), ("2e-6", 2.0), ("0.18", 0.18), ("4", 4.0),
        ("400n", 0.4), ("4E-7", 0.4),
    ])
    def test_size_normalization(self, token, microns):
        assert size_to_microns(token) == pytest.approx(microns)

    def test_size_must_be_positive(self):
        with pytest.raises(SpiceParseError):
            size_to_microns("0")


class TestModelClassification:
    @pytest.mark.parametrize("model,expected", [
        ("nch", MOSType.NMOS), ("pch", MOSType.PMOS),
        ("NMOS_VTL", MOSType.NMOS), ("pmos_rvt", MOSType.PMOS),
        ("nfet_01v8", MOSType.NMOS), ("N1", MOSType.NMOS),
    ])
    def test_conventions(self, model, expected):
        assert classify_model(model, {}) == expected

    def test_model_card_wins(self):
        assert classify_model("xtor", {"XTOR": MOSType.PMOS}) == MOSType.PMOS

    def test_unclassifiable_raises(self):
        with pytest.raises(SpiceParseError, match="cannot tell"):
            classify_model("mystery", {})


class TestWildParser:
    def test_continuation_lines_join(self):
        c = wild_to_circuit(
            "M1 d g s b nch\n+ W=1u\n+ L=0.1u\n.end\n")
        assert c.device("M1").w == pytest.approx(1.0)

    def test_case_insensitive(self):
        lower = wild_to_circuit("m1 out in vss vss nch w=1u l=0.1u\n.end\n")
        upper = wild_to_circuit("M1 OUT IN VSS VSS NCH W=1U L=0.1U\n.END\n")
        assert set(lower.nets) == set(upper.nets)
        assert lower.device("M1").w == upper.device("M1").w

    def test_param_substitution_and_chain(self):
        c = wild_to_circuit(
            ".param base=2u wide=base\n"
            "M1 d g s b nch W=wide L={base}\n.end\n")
        assert c.device("M1").w == pytest.approx(2.0)

    def test_circular_param_raises(self):
        with pytest.raises(SpiceParseError, match="circular"):
            wild_to_circuit(
                ".param a=b b=a\nM1 d g s b nch W=a L=0.1u\n.end\n")

    def test_instance_param_overrides_default(self):
        text = (
            ".subckt inv a y vdd vss wn=1u\n"
            "M1 y a vss vss nch W=wn L=0.1u\n"
            "M2 y a vdd vdd pch W=2u L=0.1u\n"
            ".ends\n"
            "X1 in out vdd vss inv wn=3u\n.end\n")
        c = wild_to_circuit(text)
        assert c.device("X1_M1").w == pytest.approx(3.0)

    def test_three_terminal_mosfet(self):
        c = wild_to_circuit("M1 d g s nch W=1u L=0.1u\n.end\n")
        assert {p for _, p in c.net("D").connections} == {"D"}

    def test_bulk_terminal_dropped(self):
        c = wild_to_circuit("M1 d g s bulkn nch W=1u L=0.1u\n.end\n")
        assert "BULKN" not in c.nets

    def test_sources_and_analysis_cards_skipped(self):
        text = ("M1 d g s b nch W=1u L=0.1u\n"
                "VDD vdd 0 DC 1.2\n.OP\n.AC DEC 10 1 1G\n.end\n")
        netlist = parse_wild_spice(text)
        assert ("VDD", "VDD", "0") in netlist.sources
        assert any("analysis card" in w for w in netlist.warnings)

    def test_include_raises_typed(self):
        with pytest.raises(SpiceParseError, match="external file"):
            parse_wild_spice(".include models.lib\n.end\n")

    def test_unsupported_element_with_line(self):
        with pytest.raises(SpiceParseError) as exc_info:
            wild_to_circuit("M1 d g s b nch W=1u L=0.1u\nQ2 c b e npn\n")
        assert exc_info.value.line_no == 2

    def test_missing_sizes_raise(self):
        with pytest.raises(SpiceParseError, match="missing L="):
            wild_to_circuit("M1 d g s b nch W=1u\n.end\n")

    def test_duplicate_device_raises(self):
        with pytest.raises(SpiceParseError):
            wild_to_circuit("M1 d g s b nch W=1u L=0.1u\n"
                            "M1 d g s b nch W=1u L=0.1u\n.end\n")

    def test_unclosed_subckt_raises(self):
        with pytest.raises(SpiceParseError, match="never closed"):
            parse_wild_spice(".subckt foo a b\nM1 a b c d nch W=1u L=1u\n")

    def test_undefined_subckt_raises(self):
        with pytest.raises(IngestError, match="undefined subcircuit"):
            wild_to_circuit("X1 a b missing_cell\n.end\n")

    def test_recursive_subckt_raises(self):
        text = (".subckt loop a b\nX1 a b loop\n.ends\n"
                "Xtop x y loop\n.end\n")
        with pytest.raises(IngestError, match="recursive"):
            wild_to_circuit(text)

    def test_pin_count_mismatch_raises(self):
        text = (".subckt cell a b c\nM1 a b c 0 nch W=1u L=1u\n.ends\n"
                "X1 n1 n2 cell\n.end\n")
        with pytest.raises(SpiceParseError, match="declares 3 pins"):
            wild_to_circuit(text)

    def test_no_devices_raises(self):
        with pytest.raises(IngestError):
            wild_to_circuit("* empty\n.end\n")

    def test_top_cell_auto_detection(self):
        text = (".subckt leaf a b\nM1 a b 0 0 nch W=1u L=1u\n.ends\n"
                ".subckt root x y\nX1 x y leaf\nX2 y x leaf\n.ends\n"
                ".end\n")
        netlist = parse_wild_spice(text)
        assert pick_top_cell(netlist) == "ROOT"
        c = wild_to_circuit(text)
        assert c.name == "ROOT"
        assert "X1_M1" in c.devices and "X2_M1" in c.devices


class TestSymmetryInference:
    def _diff_pair(self):
        c = Circuit(name="dp")
        c.add_device(MOSFET(name="M1", mos_type=MOSType.NMOS, w=4, l=0.4))
        c.add_device(MOSFET(name="M2", mos_type=MOSType.NMOS, w=4, l=0.4))
        for name in ("OUTP", "OUTN", "INP", "INN", "TAIL"):
            c.add_net(Net(name=name))
        c.net("OUTN").connect("M1", "D")
        c.net("OUTP").connect("M2", "D")
        c.net("INP").connect("M1", "G")
        c.net("INN").connect("M2", "G")
        c.net("TAIL").connect("M1", "S")
        c.net("TAIL").connect("M2", "S")
        return c

    def test_diff_pair_found(self):
        report = infer_symmetry(self._diff_pair())
        assert ("INN", "INP") in report.net_pairs
        assert ("OUTN", "OUTP") in report.net_pairs
        assert "TAIL" in report.self_symmetric
        assert report.device_pairs == [("M1", "M2")]

    def test_mismatched_sizing_not_paired(self):
        c = self._diff_pair()
        c.devices["M2"].w = 8.0
        report = infer_symmetry(c)
        assert report.device_pairs == []

    def test_cross_coupled_latch(self):
        c = Circuit(name="latch")
        c.add_device(MOSFET(name="MA", w=2, l=0.2))
        c.add_device(MOSFET(name="MB", w=2, l=0.2))
        for name in ("QP", "QN", "VSS"):
            c.add_net(Net(name=name))
        c.net("QP").connect("MA", "D")
        c.net("QN").connect("MA", "G")
        c.net("QN").connect("MB", "D")
        c.net("QP").connect("MB", "G")
        c.net("VSS").connect("MA", "S")
        c.net("VSS").connect("MB", "S")
        report = infer_symmetry(c, exclude=frozenset({"VSS"}))
        assert report.net_pairs == [("QN", "QP")]
        assert "VSS" not in report.self_symmetric

    def test_unbalanced_degree_pair_rejected(self):
        c = self._diff_pair()
        # Extra load on OUTP only: degrees diverge, pair must drop.
        c.add_device(MOSFET(name="MX", w=1, l=0.1))
        c.net("OUTP").connect("MX", "D")
        report = infer_symmetry(c)
        assert ("OUTN", "OUTP") not in report.net_pairs

    def test_apply_writes_validated_pairs(self):
        c = self._diff_pair()
        apply_symmetry(c, infer_symmetry(c))
        assert {(p.net_a, p.net_b) for p in c.symmetry_pairs} == {
            ("INN", "INP"), ("OUTN", "OUTP")}
        assert c.net("TAIL").self_symmetric


class TestAutobench:
    def test_supplies_by_structure_without_names(self):
        # No conventional names anywhere: classification must fall back
        # to source-terminal counting.
        text = ("M1 o1 i1 t rail_b nch W=4u L=0.4u\n"
                "M2 o2 i2 t rail_b nch W=4u L=0.4u\n"
                "M3 o1 o1 rail_t rail_t pch W=2u L=0.4u\n"
                "M4 o2 o1 rail_t rail_t pch W=2u L=0.4u\n"
                "M5 t nb rail_b rail_b nch W=8u L=0.8u\n.end\n")
        c = wild_to_circuit(text)
        power, ground = classify_supplies(c)
        assert power == ["RAIL_T"]
        assert ground == ["RAIL_B"]

    def test_corpus_classification(self):
        res = ingest_file(CORPUS / "comparator.sp")
        man = res.manifest()
        cls = man["classification"]
        assert cls["power"] == ["AVDD"] and cls["ground"] == ["AGND"]
        assert cls["inputs"] == ["VIP", "VIN"]
        assert set(cls["outputs"]) == {"VOUTP", "VOUTN"}
        assert cls["clocks"] == ["CK"]
        assert "CK" in cls["dc_drive_nets"]
        assert not cls["single_ended"]

    def test_single_ended_output_benches_against_ground(self):
        res = ingest_file(CORPUS / "ota5t.sp")
        assert res.bench.single_ended
        pos, neg = res.config.output_nets
        assert pos == "OUT" and neg in res.bench.ground

    def test_bias_devices_flagged(self):
        res = ingest_file(CORPUS / "ota5t.sp")
        devices = res.circuit.devices
        assert devices["XAMP_M3"].is_bias_device  # diode-connected
        assert devices["XAMP_M4"].is_bias_device  # mirror output
        assert devices["XAMP_M5"].is_bias_device  # tail on external bias
        assert not devices["XAMP_M1"].is_bias_device  # gain device

    def test_unclassifiable_raises_ingest_error(self):
        # A resistor divider has no gates at all: no input pair exists.
        text = ("R1 a b 1K\nR2 b c 1K\n.end\n")
        with pytest.raises(IngestError, match="input"):
            ingest_spice(text)

    def test_net_types_written(self):
        res = ingest_file(CORPUS / "diffamp.sp")
        c = res.circuit
        assert c.net("VDD!").net_type == NetType.POWER
        assert c.net("0").net_type == NetType.GROUND
        assert c.net("INP").net_type == NetType.INPUT
        assert c.net("OUTP").net_type == NetType.OUTPUT


class TestCorpusEndToEnd:
    def test_corpus_has_expected_netlists(self):
        names = {p.stem for p in CORPUS_FILES}
        assert {"ota5t", "diffamp", "comparator"} <= names

    @pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
    def test_no_hint_comments(self, path):
        text = path.read_text()
        assert "SYMNET" not in text.upper()
        assert "NETTYPE" not in text.upper()

    @pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
    def test_ingest_route_simulate(self, path):
        res = ingest_file(path)
        assert res.circuit.symmetry_pairs, "no symmetry inferred"
        placement = place_benchmark(res.circuit, iterations=60)
        sample = route_and_measure(
            res.circuit, placement, generic_40nm(), uniform_guidance(),
            testbench_config=res.config)
        assert sample.result.total_wirelength() > 0
        assert np.all(np.isfinite(sample.metrics.to_normalized()))

    def test_manifest_schema_golden(self):
        res = ingest_file(CORPUS / "ota5t.sp")
        manifest = res.manifest()
        json.dumps(manifest)  # must be JSON-serializable as-is
        check_golden("ingest_manifest_schema.json", schema_of(manifest))

    def test_bad_corpus_fails_typed(self):
        with pytest.raises(SpiceParseError):
            ingest_file(CORPUS / "bad" / "unsupported.sp")


class TestDcDriveNets:
    def test_stiff_drive_regularizes_gate_only_nets(self):
        from repro.extraction import extract_schematic
        from repro.simulation import simulate_performance

        res = ingest_file(CORPUS / "comparator.sp")
        parasitics = extract_schematic(list(res.circuit.nets))
        metrics = simulate_performance(res.circuit, parasitics,
                                       config=res.config)
        assert np.all(np.isfinite(metrics.to_normalized()))


def _circuit_strategy():
    """Random small circuits for round-trip property testing."""

    def build(data):
        n_mos, n_cap, seed = data
        rng = np.random.default_rng(seed)
        c = Circuit(name=f"rand{seed}")
        nets = [f"N{i}" for i in range(4 + n_mos)]
        for net in nets:
            c.add_net(Net(name=net, weight=float(rng.integers(1, 4))))
        for i in range(n_mos):
            c.add_device(MOSFET(
                name=f"M{i}",
                mos_type=MOSType.NMOS if i % 2 else MOSType.PMOS,
                w=float(rng.integers(1, 20)) / 2.0,
                l=float(rng.integers(1, 8)) / 10.0,
                fingers=int(rng.integers(1, 5)),
                bias_current=float(rng.integers(1, 100)) * 1e-6,
                is_bias_device=bool(rng.integers(0, 2)),
            ))
            for pin in ("D", "G", "S"):
                c.net(str(rng.choice(nets))).connect(f"M{i}", pin)
        from repro.netlist import Capacitor
        for i in range(n_cap):
            c.add_device(Capacitor(name=f"C{i}",
                                   value=float(rng.integers(1, 500)) * 1e-15))
            a, b = rng.choice(len(nets), size=2, replace=False)
            c.net(nets[int(a)]).connect(f"C{i}", "PLUS")
            c.net(nets[int(b)]).connect(f"C{i}", "MINUS")
        c.validate()
        return c

    return st.tuples(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=10_000),
    ).map(build)


class TestRoundTripProperty:
    @settings(max_examples=30, deadline=None)
    @given(circuit=_circuit_strategy())
    def test_roundtrip_is_lossless(self, circuit):
        restored = spice_to_circuit(circuit_to_spice(circuit))
        assert set(restored.devices) == set(circuit.devices)
        assert set(restored.nets) == set(circuit.nets)
        for name, net in circuit.nets.items():
            r = restored.net(name)
            assert sorted(r.connections) == sorted(net.connections)
            assert r.weight == net.weight
        for name, dev in circuit.devices.items():
            r = restored.device(name)
            if isinstance(dev, MOSFET):
                assert (r.w, r.l, r.fingers) == (dev.w, dev.l, dev.fingers)
                assert r.bias_current == pytest.approx(dev.bias_current)
                assert r.is_bias_device == dev.is_bias_device
            else:
                assert r.value == pytest.approx(dev.value)

    @settings(max_examples=15, deadline=None)
    @given(circuit=_circuit_strategy())
    def test_roundtrip_never_materializes_float_sentinel(self, circuit):
        restored = spice_to_circuit(circuit_to_spice(circuit))
        assert "_FLOAT_" not in restored.nets


class TestCrossTopoEval:
    def test_spearman(self):
        from repro.model.evaluation import spearman
        a = np.array([1.0, 2.0, 3.0, 4.0])
        assert spearman(a, a) == pytest.approx(1.0)
        assert spearman(a, -a) == pytest.approx(-1.0)
        assert spearman(a, np.ones(4)) == 0.0
        # Ties take their group's average rank: (1, 2.5, 2.5, 4).
        ties = np.array([1.0, 2.0, 2.0, 3.0])
        assert spearman(ties, a[[0, 2, 1, 3]]) == pytest.approx(
            3.0 / np.sqrt(10.0))

    def test_fit_multi_trains_across_graphs(self):
        from repro.core.dataset import DatasetConfig, generate_dataset
        from repro.model import Gnn3d, Gnn3dConfig, TrainConfig, Trainer
        from repro.netlist import build_benchmark

        dbs = []
        for i, name in enumerate(("OTA1", "OTA2")):
            circuit = build_benchmark(name)
            placement = place_benchmark(circuit, iterations=40, seed=i)
            dbs.append(generate_dataset(
                circuit, placement, generic_40nm(),
                config=DatasetConfig(num_samples=3, seed=i)))
        graph = dbs[0].graph
        model = Gnn3d(graph.ap_features.shape[1],
                      graph.module_features.shape[1], Gnn3dConfig(seed=0))
        trainer = Trainer(model, graph, TrainConfig(epochs=2, seed=0))
        history = trainer.fit_multi(
            [(db.graph, db.train_samples()) for db in dbs])
        assert len(history.train_loss) == 2
        assert np.isfinite(history.train_loss[-1])

    def test_run_crosstopo_smoke(self):
        from repro.eval import format_crosstopo_table, run_crosstopo

        result = run_crosstopo([CORPUS / "ota5t.sp"],
                               train_designs=("OTA1",), scale="smoke")
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row.design == "OTA5T"
        assert np.isfinite(row.mae)
        assert -1.0 <= row.rank_corr <= 1.0
        table = format_crosstopo_table(result)
        assert "OTA5T" in table and "Spearman" in table
