"""Tests for the flow-aware rule families (SIM-T time taint, SIM-K
cache-key completeness, SIM-O obs purity) and the CLI surface that
shipped with them: ``--select`` validation, suppression validation,
SARIF export, partial mode, baseline staleness."""

import json
import textwrap

from repro.analyze import analyze_paths
from repro.analyze.baseline import (load_baseline, split_by_baseline,
                                    stale_entries, write_baseline)
from repro.analyze.runner import resolve_select, run_lint
from repro.analyze.sarif import sarif_document


def lint_tree(tmp_path, files, **kwargs):
    """Write ``{relpath: source}`` under ``tmp_path`` and analyze it."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return analyze_paths([str(tmp_path)], root=str(tmp_path), **kwargs)


def rules_of(findings):
    return [finding.rule for finding in findings]


# ---------------------------------------------------------------------------
# SIM-T: time taint
# ---------------------------------------------------------------------------

class TestTimeTaint:
    def test_t001_host_index_length_charged_to_counter(self, tmp_path):
        # The acceptance fixture: len() of a host-only index structure
        # flows into a SimStats counter.
        findings = lint_tree(tmp_path, {"core/q.py": """
            class Queue:
                def sample(self):
                    self.stats.searched += len(self._order)
        """}, select={"SIM-T001"})
        assert rules_of(findings) == ["SIM-T001"]
        assert "_order" in findings[0].message

    def test_t001_interprocedural_flow_with_trace(self, tmp_path):
        findings = lint_tree(tmp_path, {"core/q.py": """
            class Queue:
                def depth(self):
                    return len(self._granules)

                def sample(self):
                    self.stats.searched += self.depth()
        """}, select={"SIM-T001"})
        assert rules_of(findings) == ["SIM-T001"]
        assert "via" in findings[0].message and \
            "depth()" in findings[0].message

    def test_t001_cross_module_flow(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "core/q.py": """
                class Queue:
                    def occupancy(self):
                        return len(self._live)
            """,
            "core/lsq.py": """
                class LSQ:
                    def sample(self):
                        self.stats.occ += self.q.occupancy()
            """,
        }, select={"SIM-T001"})
        assert rules_of(findings) == ["SIM-T001"]
        assert findings[0].path.endswith("core/lsq.py")

    def test_t002_port_charge_and_latency(self, tmp_path):
        findings = lint_tree(tmp_path, {"core/q.py": """
            class Queue:
                def evil(self, ports, inst):
                    ports.reserve(len(self._order), 0)
                    inst.done_cycle = len(self._seg_seqs)
        """}, select={"SIM-T002"})
        assert rules_of(findings) == ["SIM-T002", "SIM-T002"]

    def test_model_state_is_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {"core/q.py": """
            class Queue:
                def sample(self):
                    self.stats.occ += len(self.window)
                    self.stats.ooo += self.nilp.ooo_in_flight
        """}, select={"SIM-T001", "SIM-T002"})
        assert findings == []

    def test_blessed_model_view_launders(self, tmp_path):
        findings = lint_tree(tmp_path, {"core/q.py": """
            SIM_LINT_MODEL_VIEWS = frozenset({"backward_path"})

            class Queue:
                def backward_path(self, seq):
                    out = []
                    for segment, seqs in enumerate(self._seg_seqs):
                        out.append(segment)
                    return out

                def search(self, seq):
                    path = self.backward_path(seq)
                    self.stats.visits += len(path)
        """}, select={"SIM-T001"})
        assert findings == []

    def test_unblessed_same_flow_is_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {"core/q.py": """
            class Queue:
                def backward_path(self, seq):
                    out = []
                    for segment, seqs in enumerate(self._seg_seqs):
                        out.append(segment)
                    return out

                def search(self, seq):
                    path = self.backward_path(seq)
                    self.stats.visits += len(path)
        """}, select={"SIM-T001"})
        assert rules_of(findings) == ["SIM-T001"]

    def test_wake_index_and_event_horizon_are_host_only(self, tmp_path):
        """Reading the wake index or the event horizon into a charge is
        flagged; the blessed views (parked-load count, quiet span) are
        the sanctioned crossings."""
        findings = lint_tree(tmp_path, {"pipeline/p.py": """
            SIM_LINT_MODEL_VIEWS = frozenset({"blocked", "_quiet_span"})

            class Processor:
                def _event_horizon(self):
                    return self.cycle + 1

                def _quiet_span(self):
                    return self._event_horizon() - self.cycle

                def bad(self):
                    self.stats.waits += len(self._wake)
                    self.stats.stalls += self._event_horizon()

                def good(self):
                    self.stats.waits += self._wake.blocked(self.cycle)
                    self.stats.stalls += self._quiet_span()
        """}, select={"SIM-T001"})
        assert rules_of(findings) == ["SIM-T001", "SIM-T001"]
        assert {finding.line for finding in findings} == {12, 13}

    def test_out_of_scope_module_not_reported(self, tmp_path):
        findings = lint_tree(tmp_path, {"harness/h.py": """
            class Host:
                def sample(self):
                    self.stats.n += len(self._order)
        """}, select={"SIM-T001"})
        assert findings == []

    def test_suppression_accepted(self, tmp_path):
        findings = lint_tree(tmp_path, {"core/q.py": """
            class Queue:
                def sample(self):
                    self.stats.occ += len(self._live)  # sim-lint: ignore[SIM-T001]
        """}, select={"SIM-T001"})
        assert findings == []


# ---------------------------------------------------------------------------
# SIM-K: cache-key completeness
# ---------------------------------------------------------------------------

CELL_WITH_GAP = """
    import json

    class Cell:
        benchmark: str
        seed: int
        threads: int

        def digest(self):
            return json.dumps({
                "benchmark": self.benchmark,
                "seed": self.seed,
            })


    def run_cell(cell):
        return simulate(cell.benchmark, cell.seed, cell.threads)
"""


class TestCacheKey:
    def test_k001_field_read_on_sim_path_missing_from_digest(self,
                                                             tmp_path):
        # The acceptance fixture: `threads` steers the simulation but
        # Cell.digest() never hashes it.
        findings = lint_tree(tmp_path, {"harness/engine.py": CELL_WITH_GAP},
                             select={"SIM-K001"})
        assert rules_of(findings) == ["SIM-K001"]
        assert "'threads'" in findings[0].message

    def test_k001_exempt_registry_clears(self, tmp_path):
        source = CELL_WITH_GAP.replace(
            "import json",
            "import json\n\n"
            "    SIM_LINT_CACHE_KEY_EXEMPT = frozenset({\"threads\"})")
        findings = lint_tree(tmp_path, {"harness/engine.py": source},
                             select={"SIM-K001"})
        assert findings == []

    def test_k001_read_off_sim_path_is_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {"harness/engine.py": """
            import json

            class Cell:
                benchmark: str
                label: str

                def digest(self):
                    return json.dumps({"benchmark": self.benchmark})


            def run_cell(cell):
                return simulate(cell.benchmark)


            def report(cell):
                return cell.label
        """}, select={"SIM-K001"})
        assert findings == []

    def test_k001_interprocedural_reach(self, tmp_path):
        findings = lint_tree(tmp_path, {"harness/engine.py": """
            import json

            class Cell:
                benchmark: str
                fuel: int

                def digest(self):
                    return json.dumps({"benchmark": self.benchmark})


            def helper(cell):
                return cell.fuel


            def run_cell(cell):
                return helper(cell)
        """}, select={"SIM-K001"})
        assert rules_of(findings) == ["SIM-K001"]

    def test_k001_skipped_in_partial_mode(self, tmp_path):
        findings = lint_tree(tmp_path, {"harness/engine.py": CELL_WITH_GAP},
                             select={"SIM-K001"}, partial=True)
        assert findings == []

    def test_shipped_cell_digest_covers_sim_path_reads(self):
        # Meta-assertion on the real corpus: the shipped Cell's digest
        # payload covers every field the sim path reads (label is
        # display-only and unreachable from the entries).
        import os

        import repro
        package = os.path.dirname(os.path.abspath(repro.__file__))
        findings = analyze_paths([package], select={"SIM-K001"})
        assert findings == []


# ---------------------------------------------------------------------------
# SIM-O: obs purity
# ---------------------------------------------------------------------------

class TestObsPurity:
    def test_o001_unguarded_emission_flagged(self, tmp_path):
        # The acceptance fixture: an emission with no is-not-None guard.
        findings = lint_tree(tmp_path, {"core/c.py": """
            class Component:
                def step(self):
                    self.obs.emit("step", n=1)
        """}, select={"SIM-O001"})
        assert rules_of(findings) == ["SIM-O001"]

    def test_o001_guarded_forms_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {"core/c.py": """
            class Component:
                def direct(self):
                    if self.obs is not None:
                        self.obs.emit("a")

                def aliased(self):
                    obs = self.obs
                    if obs is not None:
                        obs.emit("b")

                def early_return(self):
                    if self.obs is None:
                        return
                    self.obs.emit("c")

                def conditional_expr(self, observer):
                    return observer.summary() if observer is not None \\
                        else None

                def short_circuit(self, obs):
                    return obs is not None and obs.emit("d")

                def compound_guard(self, depth):
                    if self.obs is not None and depth > 1:
                        self.obs.emit("e", depth=depth)
        """}, select={"SIM-O001"})
        assert findings == []

    def test_o001_constructor_bound_handle_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {"tool.py": """
            class Observer:
                def summary(self):
                    return None


            def main():
                observer = Observer()
                return observer.summary()
        """}, select={"SIM-O001"})
        assert findings == []

    def test_o001_factory_bound_handle_still_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {"tool.py": """
            def main():
                observer = build_observer()
                return observer.summary()
        """}, select={"SIM-O001"})
        assert rules_of(findings) == ["SIM-O001"]

    def test_o001_rebinding_inside_guard_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {"core/c.py": """
            class Component:
                def step(self, maker):
                    if self.obs is not None:
                        self.obs = maker()
                        self.obs.emit("a")
        """}, select={"SIM-O001"})
        assert rules_of(findings) == ["SIM-O001"]

    def test_o001_obs_package_out_of_scope(self, tmp_path):
        findings = lint_tree(tmp_path, {"obs/events.py": """
            class EventBus:
                def forward(self, obs):
                    obs.emit("x")
        """}, select={"SIM-O001"})
        assert findings == []

    def test_o002_side_effecting_argument_flagged(self, tmp_path):
        # The acceptance fixture: the argument expression mutates state.
        findings = lint_tree(tmp_path, {"core/c.py": """
            class Component:
                def step(self):
                    if self.obs is not None:
                        self.obs.emit("pop", entry=self.queue.pop())
        """}, select={"SIM-O002"})
        assert rules_of(findings) == ["SIM-O002"]
        assert "pop()" in findings[0].message

    def test_o002_pure_arguments_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {"core/c.py": """
            class Component:
                def step(self, path, which):
                    if self.obs is not None:
                        self.obs.emit("hop", n=len(path),
                                      note=f"{which}-done",
                                      top=max(path))
        """}, select={"SIM-O002"})
        assert findings == []


# ---------------------------------------------------------------------------
# --select and suppression validation
# ---------------------------------------------------------------------------

class TestSelectValidation:
    def test_family_prefix_expands(self):
        selected = resolve_select("SIM-T")
        assert selected == {"SIM-T001", "SIM-T002"}

    def test_exact_ids_and_prefix_union(self):
        selected = resolve_select("SIM-O001,SIM-K")
        assert selected == {"SIM-O001", "SIM-K001"}

    def test_unknown_select_exits_2(self, tmp_path, capsys):
        (tmp_path / "m.py").write_text("x = 1\n")
        code = run_lint([str(tmp_path), "--select", "SIM-T01"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown rule 'SIM-T01'" in err
        assert "SIM-T001" in err          # near-miss suggestion

    def test_unknown_suppression_exits_2(self, tmp_path, capsys):
        (tmp_path / "m.py").write_text(
            "import time\n"
            "t = time.time()  # sim-lint: ignore[SIM-D04]\n")
        code = run_lint([str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown rule 'SIM-D04'" in err
        assert "did you mean 'SIM-D004'" in err

    def test_bare_suppression_still_valid(self, tmp_path, capsys):
        (tmp_path / "m.py").write_text(
            "import time\n"
            "t = time.time()  # sim-lint: ignore\n")
        assert run_lint([str(tmp_path)]) == 0


# ---------------------------------------------------------------------------
# Suppression / baseline edge cases
# ---------------------------------------------------------------------------

class TestSuppressionAndBaselineEdges:
    def test_multi_rule_ignore(self, tmp_path):
        findings = lint_tree(tmp_path, {"core/q.py": """
            class Queue:
                def evil(self, ports):
                    ports.reserve(len(self._order), 0)  # sim-lint: ignore[SIM-P001, SIM-T002]
        """}, select={"SIM-P001", "SIM-T002"})
        assert findings == []

    def test_multi_rule_ignore_leaves_unlisted_rule(self, tmp_path):
        findings = lint_tree(tmp_path, {"core/q.py": """
            class Queue:
                def evil(self, ports):
                    ports.reserve(len(self._order), 0)  # sim-lint: ignore[SIM-P001]
        """}, select={"SIM-P001", "SIM-T002"})
        assert rules_of(findings) == ["SIM-T002"]

    def test_stale_baseline_entries_detected(self, tmp_path):
        findings = lint_tree(tmp_path, {"core/q.py": """
            class Queue:
                def sample(self):
                    self.stats.occ += len(self._live)
        """}, select={"SIM-T001"})
        baseline = {findings[0].fingerprint(): findings[0].message,
                    "SIM-T001::core/gone.py::7": "deleted long ago"}
        new, old = split_by_baseline(findings, baseline)
        assert new == [] and len(old) == 1
        assert stale_entries(findings, baseline) == \
            ["SIM-T001::core/gone.py::7"]

    def test_baseline_round_trip_stability(self, tmp_path):
        files = {"core/q.py": """
            class Queue:
                def sample(self):
                    self.stats.occ += len(self._live)
        """}
        findings = lint_tree(tmp_path, files, select={"SIM-T001"})
        baseline_path = tmp_path / "baseline.json"
        write_baseline(str(baseline_path), findings)
        again = analyze_paths([str(tmp_path)], root=str(tmp_path),
                              select={"SIM-T001"})
        baseline = load_baseline(str(baseline_path))
        new, old = split_by_baseline(again, baseline)
        assert new == [] and len(old) == len(findings)
        assert stale_entries(again, baseline) == []
        # Writing again from the same findings is byte-stable.
        second_path = tmp_path / "baseline2.json"
        write_baseline(str(second_path), again)
        assert baseline_path.read_text() == second_path.read_text()

    def test_runner_reports_stale_entries(self, tmp_path, capsys):
        (tmp_path / "clean.py").write_text("x = 1\n")
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(
            json.dumps({"SIM-T001::core/gone.py::7": "paid off"}))
        code = run_lint([str(tmp_path), "--baseline", str(baseline_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "stale baseline entry" in out


# ---------------------------------------------------------------------------
# SARIF export
# ---------------------------------------------------------------------------

class TestSarifExport:
    def test_document_shape(self, tmp_path):
        findings = lint_tree(tmp_path, {"core/q.py": """
            class Queue:
                def sample(self):
                    self.stats.occ += len(self._live)
        """}, select={"SIM-T001"})
        doc = sarif_document(findings)
        assert doc["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in doc["$schema"]
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "sim-lint"
        rules = run["tool"]["driver"]["rules"]
        assert [rule["id"] for rule in rules] == ["SIM-T001"]
        result = run["results"][0]
        assert result["ruleId"] == "SIM-T001"
        assert result["ruleIndex"] == 0
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("core/q.py")
        assert location["region"]["startLine"] == findings[0].line
        assert result["partialFingerprints"]["simLint/v1"] == \
            findings[0].fingerprint()

    def test_cli_writes_file_and_empty_run_is_valid(self, tmp_path,
                                                    capsys):
        (tmp_path / "clean.py").write_text("x = 1\n")
        sarif_path = tmp_path / "lint.sarif"
        code = run_lint([str(tmp_path), "--sarif", str(sarif_path)])
        assert code == 0
        doc = json.loads(sarif_path.read_text())
        assert doc["runs"][0]["results"] == []
        assert doc["runs"][0]["tool"]["driver"]["rules"] == []


# ---------------------------------------------------------------------------
# scripts/lint.py perf budget
# ---------------------------------------------------------------------------

class TestLintPerfBudget:
    def test_exceeded_budget_fails_with_notice(self):
        import os
        import subprocess
        import sys
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(root, "src"))
        proc = subprocess.run(
            [sys.executable, os.path.join(root, "scripts", "lint.py"),
             "--perf-budget", "0.0001"],
            capture_output=True, text=True, env=env, cwd=root)
        assert proc.returncode == 1
        assert "perf budget EXCEEDED" in proc.stdout
