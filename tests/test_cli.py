"""Tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

from repro.cli import build_cli_parser, main

BASE = ["--seed", "9", "--indexable", "6", "--broken", "2"]
URL = "http://lod1.example.org/sparql"


def run(args, capsys):
    code = main(BASE + args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def store(tmp_path):
    return str(tmp_path / "store")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_cli_parser().parse_args([])

    def test_render_choices(self):
        with pytest.raises(SystemExit):
            build_cli_parser().parse_args(
                ["render", "--url", "x", "--figure", "hologram", "--out", "o.svg"]
            )


class TestCommands:
    def test_index_all_then_list(self, store, capsys):
        code, out, _ = run(["--store", store, "index", "--all"], capsys)
        assert code == 0
        assert "indexed 6/6" in out

        code, out, _ = run(["--store", store, "list"], capsys)
        assert code == 0
        assert "6 indexed" in out.replace("listed, ", "listed, ")  # summary line
        assert URL in out

    def test_index_single(self, store, capsys):
        code, out, _ = run(["--store", store, "index", "--url", URL], capsys)
        assert code == 0
        assert f"OK  {URL}" in out

    def test_show(self, store, capsys):
        run(["--store", store, "index", "--url", URL], capsys)
        code, out, _ = run(["--store", store, "show", "--url", URL], capsys)
        assert code == 0
        assert "classes:" in out and "clusters" in out

    def test_show_unindexed_fails_cleanly(self, store, capsys):
        code, _, err = run(["--store", store, "show", "--url", URL], capsys)
        assert code == 2
        assert "error:" in err

    def test_render_each_figure(self, store, capsys, tmp_path):
        run(["--store", store, "index", "--url", URL], capsys)
        for figure in ("treemap", "sunburst", "circlepack", "bundling", "clusters"):
            target = str(tmp_path / f"{figure}.svg")
            code, out, _ = run(
                ["--store", store, "render", "--url", URL,
                 "--figure", figure, "--out", target],
                capsys,
            )
            assert code == 0, figure
            assert os.path.exists(target)
            with open(target) as handle:
                assert "<svg" in handle.read()

    def test_explore(self, store, capsys):
        run(["--store", store, "index", "--url", URL], capsys)
        code, out, _ = run(["--store", store, "explore", "--url", URL], capsys)
        assert code == 0
        assert "select" in out and "of instances" in out

    def test_explore_bad_start_class(self, store, capsys):
        run(["--store", store, "index", "--url", URL], capsys)
        code, _, err = run(
            ["--store", store, "explore", "--url", URL, "--start", "NoSuchClass"],
            capsys,
        )
        assert code == 2

    def test_crawl(self, store, capsys):
        code, out, _ = run(["--store", store, "crawl"], capsys)
        assert code == 0
        assert "net new:" in out

    def test_submit(self, store, capsys):
        code, out, _ = run(
            ["--store", store, "submit", "--url", URL, "--email", "a@b.example"],
            capsys,
        )
        assert code == 0
        assert "indexed" in out
        assert "mail:" in out

    def test_schedule(self, store, capsys):
        code, out, _ = run(["--store", store, "schedule", "--days", "2"], capsys)
        assert code == 0
        assert out.count("day ") == 2

    def test_export_stdout(self, store, capsys):
        run(["--store", store, "index", "--url", URL], capsys)
        code, out, _ = run(
            ["--store", store, "export", "--url", URL, "--format", "clusters-csv"],
            capsys,
        )
        assert code == 0
        assert out.startswith("class_iri,cluster_id")

    def test_export_turtle_file(self, store, capsys, tmp_path):
        run(["--store", store, "index", "--url", URL], capsys)
        target = str(tmp_path / "schema.ttl")
        code, out, _ = run(
            ["--store", store, "export", "--url", URL, "--format", "turtle",
             "--out", target],
            capsys,
        )
        assert code == 0
        from repro.rdf import parse_turtle

        with open(target) as handle:
            assert len(parse_turtle(handle.read())) > 0

    def test_store_persists_across_invocations(self, store, capsys):
        run(["--store", store, "index", "--url", URL], capsys)
        # a brand-new invocation sees the indexed dataset
        code, out, _ = run(["--store", store, "show", "--url", URL], capsys)
        assert code == 0


class TestStoreAcrossProcesses:
    def test_index_crawl_list_each_in_a_new_process(self, store):
        """A store reopened by a new process takes new documents: every run
        exits 0 and the last one lists what the crawl added."""
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {**os.environ, "PYTHONPATH": src}
        outputs = []
        for command in (["index", "--all"], ["crawl"], ["list"]):
            done = subprocess.run(
                [sys.executable, "-m", "repro.cli", "--store", store,
                 "--indexable", "4", "--broken", "0", *command],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, (command, done.stderr)
            outputs.append(done.stdout)
        assert "net new: 5" in outputs[1]
        listed = outputs[2]
        assert "9 listed, 4 indexed" in listed
        assert "listed   http://lod-euodp-0.example.org/sparql" in listed
        assert "indexed  http://lod0.example.org/sparql" in listed
