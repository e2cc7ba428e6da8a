"""The provenance head of the bench tools' records."""

import os
import subprocess
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools"))

import benchclock  # noqa: E402


def test_provenance_reads_the_git_commit(monkeypatch):
    answers = {"status": " M src/novikov/cli.py\n", "rev-parse": "abc1234\n"}

    def run(argv, **kwargs):
        return subprocess.CompletedProcess(argv, 0, answers[argv[3]], "")
    monkeypatch.setattr(benchclock.subprocess, "run", run)
    head = benchclock.provenance("probe")
    assert head["label"] == "probe"
    assert head["commit"] == "abc1234-dirty"
    answers["status"] = ""
    assert benchclock.provenance("probe")["commit"] == "abc1234"


def test_provenance_outside_a_git_work_tree(monkeypatch):
    # a `git archive` copy: git exits 128 ("not a git repository")
    def run(argv, **kwargs):
        raise subprocess.CalledProcessError(128, argv)
    monkeypatch.setattr(benchclock.subprocess, "run", run)
    head = benchclock.provenance("probe")
    assert head["commit"] is None
    assert head["label"] == "probe" and head["cpus"] == os.cpu_count()
