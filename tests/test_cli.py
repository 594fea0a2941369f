import json
import math
import os
import signal
import subprocess
import sys
from functools import reduce

import pytest

import pref2d
from pref2d import heuristic, read_embedding
from pref2d.cli import main

from test_embedding import OVERFLOW_DOCUMENT
from test_heuristic import die_mid_send

ONE_VOTER_PROFILE = "3 1\n1 2 3\n"
TWO_VOTER_PROFILE = "7 2\n1 2 3 4 5 6 7\n7 6 5 4 3 2 1\n"
THREE_VOTER_PROFILE = "7 3\n1 2 3 4 5 6 7\n7 6 5 4 3 2 1\n2 4 6 1 3 5 7\n"


@pytest.fixture
def profile_file(tmp_path):
    def write(text, name="profile.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_documents_skip_the_indenting_encoder(capsys, profile_file, tmp_path, monkeypatch):
    # A search, a batch and a closed-form certificate, each with its own
    # metadata, are laid out without json's indenting encoder (pure Python
    # before 3.13), and still exactly as it would lay them out.
    dumps = json.dumps

    def refuse_indent(obj, **kwargs):
        assert kwargs.get("indent") is None, "a document went through json.dumps(indent=...)"
        return dumps(obj, **kwargs)

    monkeypatch.setattr(json, "dumps", refuse_indent)
    code, search_doc, _ = run(capsys, ["search", profile_file(THREE_VOTER_PROFILE)])
    assert code == 0
    summary = pref2d.batch_run(
        [(5, pref2d.canonical_profile_at(7, 5))], pref2d.HeuristicConfig(), out_dir=str(tmp_path)
    )
    assert summary.successes == 1
    batch_doc = (tmp_path / "5.json").read_text()
    code, closed_doc, _ = run(capsys, ["embed", profile_file(TWO_VOTER_PROFILE)])
    assert code == 0
    monkeypatch.undo()
    docs = [read_embedding(text)[1] for text in (search_doc, batch_doc, closed_doc)]
    assert [sorted(doc.get("config", ())) for doc in docs] == [
        ["max_restarts", "samples_per_placement", "seed"],
        ["max_restarts", "profile_index", "samples_per_placement", "seed"],
        [],
    ]
    assert "seed" not in docs[2]
    for text, doc in zip((search_doc, batch_doc, closed_doc), docs):
        assert text == json.dumps(doc, indent=2) + "\n"


class TestVerifyCommand:
    def test_construction_document_verifies(self, capsys, profile_file, tmp_path):
        ppath = profile_file(ONE_VOTER_PROFILE)
        code, doc, _ = run(capsys, ["embed", ppath])
        assert code == 0
        epath = tmp_path / "emb.json"
        epath.write_text(doc)
        code, out, _ = run(capsys, ["verify", ppath, str(epath)])
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert report["min_slack"] == 1.0

    def test_corrupted_coordinate_fails(self, capsys, profile_file, tmp_path):
        ppath = profile_file(ONE_VOTER_PROFILE)
        code, doc, _ = run(capsys, ["embed", ppath])
        payload = json.loads(doc)
        payload["alternatives"][0] = [100.0, 100.0]
        epath = tmp_path / "bad.json"
        epath.write_text(json.dumps(payload))
        code, out, _ = run(capsys, ["verify", ppath, str(epath)])
        assert code == 1
        # 1-based ids, as in documents: voter 1 ranks alternative 1 first.
        violations = json.loads(out)["violations"]
        assert [v[:3] for v in violations] == [[1, 1, 2]]

    def test_negative_margin_is_usage_error(self, capsys, profile_file, tmp_path):
        ppath = profile_file(ONE_VOTER_PROFILE)
        code, doc, _ = run(capsys, ["embed", ppath])
        epath = tmp_path / "emb.json"
        epath.write_text(doc)
        code, out, err = run(capsys, ["verify", ppath, str(epath), "--margin", "-1"])
        assert code == 2 and out == ""
        assert "margin" in err

    def test_overflowing_distance_is_usage_error(self, capsys, profile_file, tmp_path):
        ppath = profile_file("2 1\n1 2\n")
        epath = tmp_path / "overflow.json"
        epath.write_text(OVERFLOW_DOCUMENT)
        for margin in ("0", "1e300"):
            code, out, err = run(capsys, ["verify", ppath, str(epath), "--margin", margin])
            assert code == 2 and out == ""
            assert "overflow" in err

    def test_missing_file(self, capsys, profile_file):
        ppath = profile_file(ONE_VOTER_PROFILE)
        code, _, err = run(capsys, ["verify", ppath, "/nonexistent/emb.json"])
        assert code == 2
        assert "error" in err

    def test_dimension_mismatch(self, capsys, profile_file, tmp_path):
        code, doc, _ = run(capsys, ["embed", profile_file(ONE_VOTER_PROFILE)])
        epath = tmp_path / "emb.json"
        epath.write_text(doc)
        other = profile_file("2 1\n1 2\n", name="other.txt")
        code, _, err = run(capsys, ["verify", other, str(epath)])
        assert code == 2


class TestEmbedCommand:
    def test_two_voter_strategy(self, capsys, profile_file):
        code, doc, _ = run(capsys, ["embed", profile_file(TWO_VOTER_PROFILE)])
        assert code == 0
        emb, payload = read_embedding(doc)
        assert payload["ok"] is True
        assert payload["n"] == 2 and payload["m"] == 7

    def test_three_alt_many_voters(self, capsys, profile_file):
        text = "3 5\n1 2 3\n2 1 3\n2 3 1\n3 2 1\n3 1 2\n"
        code, doc, _ = run(capsys, ["embed", profile_file(text)])
        assert code == 0
        assert read_embedding(doc)[1]["ok"] is True

    def test_inapplicable_strategy(self, capsys, profile_file):
        # The construction and the two search margins are fixed, not flags.
        ppath = profile_file(THREE_VOTER_PROFILE)
        for argv in (
            ["embed", ppath, "--strategy", "two-voter"],
            ["search", ppath, "--verify-margin", "1e-7"],
            ["search", ppath, "--placement-margin", "1e-6"],
            ["batch", "--m", "3", "--verify-margin", "1e-7"],
            ["batch", "--m", "3", "--placement-margin", "1e-6"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_auto_hint_for_large_profile(self, capsys, profile_file):
        code, _, err = run(capsys, ["embed", profile_file(THREE_VOTER_PROFILE)])
        assert code == 2
        assert "search" in err


class TestSearchCommand:
    def test_success_document(self, capsys, profile_file):
        ppath = profile_file(THREE_VOTER_PROFILE)
        code, doc, _ = run(capsys, ["search", ppath, "--seed", "5"])
        assert code == 0
        emb, payload = read_embedding(doc)
        assert payload["ok"] is True
        assert payload["seed"] == 5
        assert payload["config"]["max_restarts"] == 20000

    def test_deterministic_stdout(self, capsys, profile_file):
        ppath = profile_file(THREE_VOTER_PROFILE)
        _, first, _ = run(capsys, ["search", ppath, "--seed", "5"])
        _, second, _ = run(capsys, ["search", ppath, "--seed", "5"])
        assert first == second

    def test_exhausted_exit_one(self, capsys, profile_file):
        ppath = profile_file(THREE_VOTER_PROFILE)
        code, out, err = run(
            capsys,
            ["search", ppath, "--seed", "1", "--max-restarts", "1", "--samples", "1"],
        )
        if code == 1:
            assert out == ""
            assert json.loads(err.splitlines()[-1])["status"] == "exhausted"
        else:
            assert code == 0

    def test_bad_flags(self, capsys, profile_file):
        ppath = profile_file(THREE_VOTER_PROFILE)
        code, _, err = run(capsys, ["search", ppath, "--max-restarts", "0"])
        assert code == 2

    def test_document_reverifies_via_cli(self, capsys, profile_file, tmp_path):
        ppath = profile_file(THREE_VOTER_PROFILE)
        code, doc, _ = run(capsys, ["search", ppath, "--seed", "5"])
        epath = tmp_path / "emb.json"
        epath.write_text(doc)
        code, out, _ = run(capsys, ["verify", ppath, str(epath), "--margin", "1e-7"])
        assert code == 0


class TestEnumerateAndCount:
    def test_count_only(self, capsys):
        # The m=7 count goes through `count`; `enumerate --count-only` is gone.
        code, out, _ = run(capsys, ["count", "--m", "7"])
        assert code == 0
        assert out.strip() == "12693241"
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--m", "7", "--count-only"])
        assert exc.value.code == 2

    def test_count_command(self, capsys):
        code, out, _ = run(capsys, ["count", "--m", "4"])
        assert code == 0 and out.strip() == "253"

    def test_count_past_the_int_str_limit(self, capsys):
        # The m=900 count has 4540 digits, more than the 4300 that str() of
        # an int allows by default; the digits are read back without int().
        code, out, _ = run(capsys, ["count", "--m", "900"])
        digits = out.strip()
        assert code == 0 and len(digits) == 4540 and digits.isdigit()
        value = reduce(lambda acc, c: 10 * acc + int(c), digits, 0)
        assert value == math.comb(math.factorial(900) - 1, 2)

    def test_m2_empty(self, capsys):
        code, out, _ = run(capsys, ["enumerate", "--m", "2"])
        assert code == 0 and out == ""

    def test_m3_has_ten_records(self, capsys):
        code, out, _ = run(capsys, ["enumerate", "--m", "3"])
        assert code == 0
        records = [l for l in out.splitlines() if l.startswith("#")]
        headers = [l for l in out.splitlines() if l == "3 3"]
        assert len(records) == 10 and len(headers) == 10

    def test_range(self, capsys):
        code, full, _ = run(capsys, ["enumerate", "--m", "3"])
        code, part, _ = run(capsys, ["enumerate", "--m", "3", "--range", "4..7"])
        full_records = full.split("# ")[1:]
        part_records = part.split("# ")[1:]
        assert part_records == full_records[4:7]
        # An empty range at the very end of the stream is legal.
        code, out, _ = run(capsys, ["enumerate", "--m", "3", "--range", "10..10"])
        assert code == 0 and out == ""

    def test_bad_range(self, capsys):
        # m=3 has 10 profiles: a range past the end is refused, not clipped.
        for text in ("7..4", "8..100", "20..30"):
            code, out, _ = run(capsys, ["enumerate", "--m", "3", "--range", text])
            assert code == 2 and out == ""
        for text in ("8..100", "5", "a..b"):
            code, out, _ = run(capsys, ["batch", "--m", "3", "--range", text])
            assert code == 2 and out == ""
        code, out, err = run(capsys, ["batch", "--m", "3", "--sample", "-1"])
        assert code == 2 and out == "" and "--sample" in err

    def test_order_table_too_large(self, capsys):
        # A walk caches every order it reaches, up to all m!; past the bound
        # the stream is refused before any work, while `count` stays exact
        # for any m.
        for argv in (
            ["enumerate", "--m", "13", "--range", "0..1"],
            ["batch", "--m", "10", "--sample", "1"],
            ["batch", "--m", "13", "--sample", "1"],
        ):
            code, out, err = run(capsys, argv)
            assert code == 2 and out == ""
            assert "order table" in err
        code, out, _ = run(capsys, ["count", "--m", "13"])
        assert code == 0 and out.strip() == "19387894012475788801"


class TestBatchCommand:
    def test_m3_batch(self, capsys):
        code, out, err = run(capsys, ["batch", "--m", "3", "--seed", "0"])
        assert code == 0
        summary = json.loads(out)
        assert summary["total"] == 10
        assert summary["successes"] == 10
        assert summary["exhausted"] == 0
        assert "elapsed" in err

    def test_worker_determinism(self, capsys):
        _, one, _ = run(capsys, ["batch", "--m", "3", "--seed", "4", "--workers", "1"])
        _, eight, _ = run(capsys, ["batch", "--m", "3", "--seed", "4", "--workers", "8"])
        assert one == eight

    def test_repeat_determinism(self, capsys):
        _, first, _ = run(capsys, ["batch", "--m", "4", "--range", "0..20", "--seed", "2"])
        _, second, _ = run(capsys, ["batch", "--m", "4", "--range", "0..20", "--seed", "2"])
        assert first == second

    def test_out_dir(self, capsys, tmp_path):
        out_dir = tmp_path / "sink"
        out_dir.mkdir()
        code, out, _ = run(
            capsys,
            ["batch", "--m", "3", "--range", "2..5", "--out", str(out_dir)],
        )
        assert code == 0
        assert sorted(f.name for f in out_dir.iterdir()) == ["2.json", "3.json", "4.json"]

    def test_sample_covering_stream_matches_full(self, capsys):
        code, sampled, _ = run(capsys, ["batch", "--m", "4", "--sample", "300"])
        _, full, _ = run(capsys, ["batch", "--m", "4"])
        assert code == 0
        assert json.loads(sampled)["total"] == 253
        assert sampled == full

    def test_hard_profile_certifies(self, capsys):
        # 5952648, one of ROADMAP item 3's hard profiles, took 6,112
        # restarts at the default seed, and exhausted all 20,000 at base
        # seeds 1, 3 and 4, before the sampler kept each placed alternative
        # out of the spots that leave another no room; then 1,501, before
        # each restart placed the most constrained alternative next.
        code, out, _ = run(capsys, ["batch", "--m", "7", "--range", "5952648..5952649"])
        assert code == 0
        summary = json.loads(out)
        assert summary["exhausted_indices"] == []
        assert summary["restart_histogram"] == {"43": 1}

    def test_sample_and_range_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["batch", "--m", "4", "--sample", "5", "--range", "0..5"])
        assert exc.value.code == 2

    def test_missing_out_dir_is_io_error(self, capsys):
        code, _, err = run(
            capsys,
            ["batch", "--m", "3", "--range", "0..2", "--out", "/nonexistent/dir"],
        )
        assert code == 2

    def test_killed_worker_is_an_error(self, capsys, monkeypatch):
        # A worker killed from outside sends nothing: that is an error, one
        # line and exit 2, not an incomplete batch's exit 1.
        test_pid = os.getpid()
        search = heuristic.greedy_embed

        def search_unless_a_child(p, cfg):
            if os.getpid() != test_pid:
                os.kill(os.getpid(), signal.SIGKILL)
            return search(p, cfg)

        monkeypatch.setattr(
            heuristic.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
        )
        monkeypatch.setattr(heuristic, "greedy_embed", search_unless_a_child)
        code, out, err = run(
            capsys, ["batch", "--m", "4", "--range", "0..50", "--workers", "2"]
        )
        assert (code, out) == (2, "")
        assert err == "error: a batch worker exited with code -9 before sending its result\n"

    def test_worker_killed_mid_send_is_an_error(self, capsys, monkeypatch):
        # A worker killed half-way through sending its share is judged by its
        # exit status, not by unpickling what it sent: one line and exit 2.
        monkeypatch.setattr(
            heuristic.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
        )
        monkeypatch.setattr(heuristic, "_search_share_and_exit", die_mid_send)
        code, out, err = run(
            capsys, ["batch", "--m", "4", "--range", "0..50", "--workers", "2"]
        )
        assert (code, out) == (2, "")
        assert err == "error: a batch worker exited with code -9 before sending its result\n"

    def test_start_up_imports_no_pool(self):
        # batch_run forks its workers itself: a fresh interpreter that loads
        # the CLI and an m=7 profile, and then runs a two-worker batch, has
        # not imported multiprocessing.
        src = os.path.dirname(os.path.dirname(pref2d.__file__))
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "import pref2d, pref2d.cli; pref2d.canonical_profile_at(7, 0); "
            "print('multiprocessing' in sys.modules); "
            "code = pref2d.cli.main(['batch', '--m', '4', '--range', '0..40', "
            "'--workers', '2']); "
            "print(code, 'multiprocessing' in sys.modules)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code, src], capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert (lines[0], lines[-1]) == ("False", "0 False"), done.stdout
        # stdout is a pipe, so the first line was still buffered at the
        # fork: no worker may flush it a second time.
        assert lines.count("False") == 1, done.stdout


class TestRenderCommand:
    def test_renders_svg(self, capsys, profile_file, tmp_path):
        ppath = profile_file(ONE_VOTER_PROFILE)
        code, doc, _ = run(capsys, ["embed", ppath])
        epath = tmp_path / "emb.json"
        epath.write_text(doc)
        svg_path = tmp_path / "out.svg"
        code, _, _ = run(capsys, ["render", ppath, str(epath), "--out", str(svg_path)])
        assert code == 0
        svg = svg_path.read_text()
        assert svg.startswith("<svg")
        assert svg.count("<circle") == 3
        assert svg.count("<rect") == 1

    def test_mismatched_dimensions(self, capsys, profile_file, tmp_path):
        code, doc, _ = run(capsys, ["embed", profile_file(ONE_VOTER_PROFILE)])
        epath = tmp_path / "emb.json"
        epath.write_text(doc)
        other = profile_file("2 1\n1 2\n", name="other.txt")
        code, _, err = run(capsys, ["render", other, str(epath), "--out", str(tmp_path / "x.svg")])
        assert code == 2

    def test_overflowing_extent_is_usage_error(self, capsys, profile_file, tmp_path):
        ppath = profile_file("2 1\n2 1\n")
        epath = tmp_path / "overflow.json"
        epath.write_text(OVERFLOW_DOCUMENT)
        svg_path = tmp_path / "x.svg"
        code, out, err = run(capsys, ["render", ppath, str(epath), "--out", str(svg_path)])
        assert code == 2 and out == ""
        assert "overflow" in err
        assert not svg_path.exists()

    def test_unwritable_path(self, capsys, profile_file, tmp_path):
        ppath = profile_file(ONE_VOTER_PROFILE)
        code, doc, _ = run(capsys, ["embed", ppath])
        epath = tmp_path / "emb.json"
        epath.write_text(doc)
        code, _, err = run(
            capsys, ["render", ppath, str(epath), "--out", "/nonexistent/dir/x.svg"]
        )
        assert code == 2


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_seed_out_of_range(self, capsys, profile_file):
        ppath = profile_file(THREE_VOTER_PROFILE)
        for argv in (["search", ppath, "--seed", "-5"], ["batch", "--m", "3", "--seed", "-5"]):
            code, out, err = run(capsys, argv)
            assert code == 2 and out == "" and "seed" in err

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--m", "3", "--bogus"])
        assert exc.value.code == 2

    def test_parse_error_names_line(self, capsys, profile_file):
        bad = profile_file("3 1\n1 1 2\n", name="bad.txt")
        code, _, err = run(capsys, ["embed", bad])
        assert code == 2
        assert "line 2" in err

    def test_deeply_nested_document_is_usage_error(self, capsys, profile_file, tmp_path):
        ppath = profile_file(ONE_VOTER_PROFILE)
        epath = tmp_path / "nested.json"
        epath.write_text("[" * 100_000)
        for argv in (["verify", ppath, str(epath)],
                     ["render", ppath, str(epath), "--out", str(tmp_path / "x.svg")]):
            code, out, err = run(capsys, argv)
            assert code == 2 and out == ""
            assert "nested too deeply" in err
