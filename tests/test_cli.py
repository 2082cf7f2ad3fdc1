"""Command-line behaviors: exit codes, outputs, file discipline."""

import hashlib
import json

import pytest

from clustercrypt import cli, fields
from clustercrypt.analysis import enumerate_exchange_graph
from clustercrypt.cli import main
from clustercrypt.cluster import DynkinSpec, Quiver, dynkin_exchange_matrix


@pytest.fixture
def ex1_files(tmp_path):
    params = tmp_path / "ex1.json"
    key = tmp_path / "ex1key.json"
    assert (
        main(
            [
                "params",
                "--p", "2", "--r", "5", "--f", "1,0,1,0,0,1",
                "--family", "A", "--rank", "5",
                "--out", str(params),
            ]
        )
        == 0
    )
    key.write_text('{"k0":0,"seq":[1,4,0,3,1]}')
    return params, key


class TestParams:
    def test_writes_valid_file(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        code = main(
            [
                "params",
                "--p", "101", "--r", "7", "--f", "46,0,1,1,0,74,0,1",
                "--family", "D", "--rank", "7",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["p"] == 101
        assert payload["diagram"] == {"family": "D", "rank": 7}

    def test_reducible_modulus_is_usage_error(self, tmp_path):
        code = main(
            [
                "params",
                "--p", "2", "--r", "2", "--f", "1,0,1",
                "--family", "A", "--rank", "2",
                "--out", str(tmp_path / "p.json"),
            ]
        )
        assert code == 64


    def test_explicit_orientation_is_written(self, tmp_path):
        out = tmp_path / "p.json"
        code = main(
            [
                "params",
                "--p", "5", "--r", "3", "--f", "3,4,0,1",
                "--family", "A", "--rank", "3", "--orientation", "1>0,1>2",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.read_bytes() == (
            b'{"diagram":{"family":"A","orientation":[[1,0],[1,2]],"rank":3},'
            b'"f":[3,4,0,1],"p":5,"r":3}'
        )

    @pytest.mark.parametrize("orientation", ["0-1,1>2", "0>x,1>2"])
    def test_malformed_orientation_is_usage_error(self, tmp_path, orientation):
        out = tmp_path / "p.json"
        code = main(
            [
                "params",
                "--p", "5", "--r", "3", "--f", "3,4,0,1",
                "--family", "A", "--rank", "3", "--orientation", orientation,
                "--out", str(out),
            ]
        )
        assert code == 64
        assert not out.exists()


class TestKeygen:
    def test_deterministic_with_seed(self, ex1_files, tmp_path):
        params, _ = ex1_files
        out1, out2 = tmp_path / "k1.json", tmp_path / "k2.json"
        for out in (out1, out2):
            assert (
                main(
                    [
                        "keygen",
                        "--params", str(params),
                        "--length", "6",
                        "--rng-seed", "42",
                        "--out", str(out),
                    ]
                )
                == 0
            )
        assert out1.read_bytes() == out2.read_bytes()

    def test_deeply_nested_params_are_usage_error(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        out = tmp_path / "k.json"
        argv = ["keygen", "--params", str(deep), "--length", "4", "--out", str(out)]
        assert main(argv) == 64
        assert capsys.readouterr().err == "error: bad JSON: nested too deeply\n"

    def test_echoes_generated_seed(self, ex1_files, tmp_path, capsys):
        params, _ = ex1_files
        code = main(
            [
                "keygen",
                "--params", str(params),
                "--length", "4",
                "--out", str(tmp_path / "k.json"),
            ]
        )
        assert code == 0
        assert "rng-seed:" in capsys.readouterr().out


class TestEncryptDecrypt:
    def test_worked_example_values(self, ex1_files, tmp_path, capsys):
        params, key = ex1_files
        out = tmp_path / "ct.json"
        code = main(
            [
                "encrypt",
                "--params", str(params),
                "--key", str(key),
                "--message", "F",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert "[11, 18, 4, 7, 25]" in capsys.readouterr().out
        code = main(
            [
                "decrypt",
                "--params", str(params),
                "--key", str(key),
                "--ciphertext", str(out),
            ]
        )
        assert code == 0
        assert "6 (F)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "name,text",
        [
            ("key", '{"k0": true, "seq": [1.9, 4, 0, 3, 1]}'),
            (
                "params",
                '{"p": 2.0, "r": 5, "f": [1, 0, 1, 0, 0, 1],'
                ' "diagram": {"family": "A", "rank": 5.7}}',
            ),
        ],
        ids=["key", "params"],
    )
    def test_non_integer_file_fields_are_usage_errors(
        self, ex1_files, tmp_path, capsys, name, text
    ):
        files = dict(zip(("params", "key"), map(str, ex1_files)))
        files[name] = str(tmp_path / "bad.json")
        (tmp_path / "bad.json").write_text(text)
        code = main(
            [
                "encrypt",
                "--params", files["params"],
                "--key", files["key"],
                "--message", "F",
                "--out", str(tmp_path / "ct.json"),
            ]
        )
        assert code == 64
        assert "must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "ct.json").exists()

    def test_reference_path_writes_identical_file(self, ex1_files, tmp_path):
        params, key = ex1_files
        fast, ref = tmp_path / "fast.json", tmp_path / "ref.json"
        for path, extra in ((fast, []), (ref, ["--reference-path"])):
            assert (
                main(
                    [
                        "encrypt",
                        "--params", str(params),
                        "--key", str(key),
                        "--message", "F",
                        "--out", str(path),
                    ]
                    + extra
                )
                == 0
            )
        assert fast.read_bytes() == ref.read_bytes()

    def test_zero_message_exits_2_without_output(self, ex1_files, tmp_path):
        params, key = ex1_files
        out = tmp_path / "ct.json"
        code = main(
            [
                "encrypt",
                "--params", str(params),
                "--key", str(key),
                "--message", "0",
                "--out", str(out),
            ]
        )
        assert code == 2
        assert not out.exists()

    def test_wrong_key_exits_3(self, ex1_files, tmp_path):
        params, key = ex1_files
        out = tmp_path / "ct.json"
        main(
            [
                "encrypt",
                "--params", str(params),
                "--key", str(key),
                "--message", "F",
                "--out", str(out),
            ]
        )
        wrong = tmp_path / "wrong.json"
        wrong.write_text('{"k0":0,"seq":[1,4,0,3,2]}')
        code = main(
            [
                "decrypt",
                "--params", str(params),
                "--key", str(wrong),
                "--ciphertext", str(out),
            ]
        )
        assert code == 3

    def test_multi_letter_text(self, ex1_files, tmp_path, capsys):
        params, key = ex1_files
        out = tmp_path / "ct.json"
        assert (
            main(
                [
                    "encrypt",
                    "--params", str(params),
                    "--key", str(key),
                    "--message", "HELP",
                    "--out", str(out),
                ]
            )
            == 0
        )
        assert len(out.read_bytes().splitlines()) == 4
        capsys.readouterr()
        assert (
            main(
                [
                    "decrypt",
                    "--params", str(params),
                    "--key", str(key),
                    "--ciphertext", str(out),
                ]
            )
            == 0
        )
        assert "text: HELP" in capsys.readouterr().out

    def test_decrypt_json_is_pinned(self, ex1_files, tmp_path, capsys):
        params, key = ex1_files
        out = tmp_path / "ct.json"
        files = ["--params", str(params), "--key", str(key)]
        assert main(["encrypt", *files, "--message", "HELP", "--out", str(out)]) == 0
        capsys.readouterr()
        files += ["--ciphertext", str(out)]
        assert main(["decrypt", *files, "--format", "json"]) == 0
        assert capsys.readouterr().out == (
            '[{"number": 8, "letter": "H"}, {"number": 5, "letter": "E"}, '
            '{"number": 12, "letter": "L"}, {"number": 16, "letter": "P"}]\n'
        )

    def test_decrypt_validates_the_field_once(
        self, ex1_files, tmp_path, capsys, monkeypatch
    ):
        # each record is read against --params, not rebuilt from its header
        params, key = ex1_files
        out = tmp_path / "ct.json"
        files = ["--params", str(params), "--key", str(key)]
        assert main(["encrypt", *files, "--message", "HELP", "--out", str(out)]) == 0
        calls = []
        original = fields.is_irreducible

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(fields, "is_irreducible", counting)
        assert main(["decrypt", *files, "--ciphertext", str(out)]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "tamper,code,message",
        [
            ("zero-value", 3, "error: decryption failed at step 1\n"),
            ("negated-matrix", 3, "error: matrix did not return to the initial one\n"),
            ("invalid-key", 64, "error: invalid key: "),
        ],
    )
    def test_decrypt_failures(self, ex1_files, tmp_path, capsys, tamper, code, message):
        params, key = ex1_files
        out = tmp_path / "ct.json"
        files = ["--params", str(params), "--key", str(key)]
        assert main(["encrypt", *files, "--message", "F", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        if tamper == "zero-value":
            # undoing the key's last vertex, 1, divides by value 1
            payload["values"][1] = [0] * 5
        elif tamper == "negated-matrix":
            # -B swaps the two monomials of every exchange relation, so the
            # values return but the matrix comes back negated
            payload["matrix"] = [[-b for b in row] for row in payload["matrix"]]
        else:
            key.write_text('{"k0":0,"seq":[1,1,0]}')
        out.write_text(json.dumps(payload) + "\n")
        capsys.readouterr()
        assert main(["decrypt", *files, "--ciphertext", str(out)]) == code
        captured = capsys.readouterr()
        assert captured.err.startswith(message)
        assert captured.out == ""

    @pytest.mark.parametrize(
        "tamper,message",
        [
            ("wrong-rank", "error: ciphertext rank 3 != field degree 5\n"),
            ("missing-fields", "error: missing fields ['matrix', 'values']\n"),
            ("short-digits", "error: value digit arrays do not match the field degree\n"),
        ],
        ids=["wrong-rank", "missing-fields", "short-digits"],
    )
    def test_unreadable_records_are_usage_errors(
        self, ex1_files, tmp_path, capsys, tamper, message
    ):
        params, key = ex1_files
        out = tmp_path / "ct.json"
        files = ["--params", str(params), "--key", str(key)]
        assert main(["encrypt", *files, "--message", "F", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        if tamper == "wrong-rank":
            # the A5 header kept over a 3x3 matrix and three values
            payload["matrix"] = [row[:3] for row in payload["matrix"][:3]]
            payload["values"] = payload["values"][:3]
        elif tamper == "missing-fields":
            del payload["matrix"], payload["values"]
        else:
            payload["values"][0] = payload["values"][0][:-1]
        out.write_text(json.dumps(payload) + "\n")
        capsys.readouterr()
        assert main(["decrypt", *files, "--ciphertext", str(out)]) == 64
        assert capsys.readouterr() == ("", message)

    def test_integer_message_example2(self, tmp_path, capsys):
        params = tmp_path / "ex2.json"
        key = tmp_path / "ex2key.json"
        main(
            [
                "params",
                "--p", "101", "--r", "7", "--f", "46,0,1,1,0,74,0,1",
                "--family", "D", "--rank", "7",
                "--out", str(params),
            ]
        )
        key.write_text('{"k0":3,"seq":[2,3,4,3]}')
        out = tmp_path / "ct.json"
        capsys.readouterr()
        assert (
            main(
                [
                    "encrypt",
                    "--params", str(params),
                    "--key", str(key),
                    "--message", "38927",
                    "--out", str(out),
                ]
            )
            == 0
        )
        assert "12799379480831" in capsys.readouterr().out
        assert (
            main(
                [
                    "decrypt",
                    "--params", str(params),
                    "--key", str(key),
                    "--ciphertext", str(out),
                ]
            )
            == 0
        )
        assert "38927" in capsys.readouterr().out


    def test_other_diagram_params_are_usage_error(self, ex1_files, tmp_path, capsys):
        # the same field GF(2^5) with D5 in place of A5: a params mismatch,
        # not a wrong key
        params, key = ex1_files
        d5 = tmp_path / "d5.json"
        assert (
            main(
                [
                    "params",
                    "--p", "2", "--r", "5", "--f", "1,0,1,0,0,1",
                    "--family", "D", "--rank", "5",
                    "--out", str(d5),
                ]
            )
            == 0
        )
        out = tmp_path / "ct.json"
        assert (
            main(
                [
                    "encrypt",
                    "--params", str(d5),
                    "--key", str(key),
                    "--message", "F",
                    "--out", str(out),
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = main(
            [
                "decrypt",
                "--params", str(params),
                "--key", str(key),
                "--ciphertext", str(out),
            ]
        )
        assert code == 64
        assert "do not match --params" in capsys.readouterr().err


class TestGraphProbe:
    def test_graph_counts(self, capsys):
        assert main(["graph", "--family", "A", "--rank", "3"]) == 0
        out = capsys.readouterr().out
        assert "mutation classes: 14" in out
        assert "labeled seeds:    84" in out

    def test_graph_needs_arguments(self):
        assert main(["graph"]) == 64

    def test_graph_budget_is_usage_error(self, capsys):
        code = main(["graph", "--family", "A", "--rank", "4", "--budget", "10"])
        assert code == 64
        captured = capsys.readouterr()
        assert "exchange graph exceeded 10 vertices" in captured.err
        assert captured.out == ""

    def test_graph_params_file_matches_family_and_rank(self, ex1_files, capsys):
        params, _ = ex1_files
        assert main(["graph", "--family", "A", "--rank", "5"]) == 0
        by_spec = capsys.readouterr().out
        assert main(["graph", "--params", str(params)]) == 0
        assert capsys.readouterr().out == by_spec

    def test_graph_orientation_matches_the_library_graph(self, capsys):
        argv = ["graph", "--family", "A", "--rank", "3", "--orientation", "1>0,1>2"]
        assert main([*argv, "--format", "json"]) == 0
        info = json.loads(capsys.readouterr().out)
        spec = DynkinSpec("A", 3, ((1, 0), (1, 2)))
        graph = enumerate_exchange_graph(dynkin_exchange_matrix(spec))
        assert (info["vertices"], info["edges"], info["labeled_seeds"]) == (
            graph.n_vertices, graph.n_edges, graph.labeled_seed_count
        )
        assert info["fingerprint_point"] == list(graph.point)

    def test_graph_malformed_orientation_is_usage_error(self, capsys):
        argv = ["graph", "--family", "A", "--rank", "3", "--orientation", "0-1,1>2"]
        assert main(argv) == 64
        assert capsys.readouterr().out == ""

    def test_graph_csv(self, capsys):
        assert main(["graph", "--family", "A", "--rank", "3", "--format", "csv"]) == 0
        assert capsys.readouterr().out == (
            "diagram,vertices,edges,labeled_seeds,regular,connected\n"
            "A3,14,21,84,True,True\n"
        )

    def test_graph_dot_writes_the_initial_quiver(self, tmp_path, capsys):
        dot = tmp_path / "a3.dot"
        assert main(["graph", "--family", "A", "--rank", "3"]) == 0
        plain = capsys.readouterr().out
        assert main(["graph", "--family", "A", "--rank", "3", "--dot", str(dot)]) == 0
        assert capsys.readouterr().out == f"wrote {dot}\n" + plain
        matrix = dynkin_exchange_matrix(DynkinSpec("A", 3))
        assert dot.read_text() == Quiver.from_matrix(matrix).to_dot() + "\n"

    def test_graph_dot_of_a_valued_diagram_fails_before_enumerating(
        self, tmp_path, capsys, monkeypatch
    ):
        def enumerate_exchange_graph(*args, **kwargs):
            pytest.fail("the exchange graph was enumerated")

        monkeypatch.setattr(cli, "enumerate_exchange_graph", enumerate_exchange_graph)
        dot = tmp_path / "b3.dot"
        assert main(["graph", "--family", "B", "--rank", "3", "--dot", str(dot)]) == 64
        assert capsys.readouterr() == (
            "", "error: only skew-symmetric matrices correspond to quivers\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_graph_json(self, capsys):
        assert main(["graph", "--family", "B", "--rank", "2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["vertices"] == 6

    def test_probe_csv(self, capsys):
        assert (
            main(
                [
                    "probe",
                    "--families", "A,B",
                    "--min-rank", "2",
                    "--max-rank", "3",
                    "--format", "csv",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("family,rank,")
        assert "False" in out  # the A-family closed-form flag


    def test_probe_takes_each_family_at_the_ranks_it_has(self, capsys):
        # G has rank 2 only and F rank 4 only: the other ranks are skipped
        assert (
            main(["probe", "--families", "G,F", "--max-rank", "4", "--format", "csv"])
            == 0
        )
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        enumerated = [row[:3] for row in rows if row[2]]
        assert enumerated == [["G", "2", "8"], ["F", "4", "105"]]

    def test_probe_unknown_family_is_usage_error(self, capsys):
        assert main(["probe", "--families", "X"]) == 64
        assert "unknown family" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "ranks", [["--min-rank", "5", "--max-rank", "4"], ["--max-rank", "1"]]
    )
    def test_probe_unknown_family_is_usage_error_at_any_rank_range(
        self, capsys, ranks
    ):
        assert main(["probe", "--families", "X,A", *ranks]) == 64
        captured = capsys.readouterr()
        assert captured.err == "error: unknown family 'X'\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "families,max_rank,skipped",
        [("E", "5", ["E"]), ("D", "3", ["D"]), ("D,A,E", "3", ["D", "E"])],
        ids=["E-5", "D-3", "DAE-3"],
    )
    def test_probe_names_each_skipped_family(
        self, capsys, families, max_rank, skipped
    ):
        assert main(["probe", "--families", families, "--max-rank", max_rank]) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"probe: no {family} rank in [2, {max_rank}]; skipped" for family in skipped
        ]


class TestGoldenOutput:
    # sha256 of stdout, pinned so that a refactor which claims to leave
    # these reports byte-identical is checked on every run
    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                ["probe", "--max-rank", "5"],
                "0df261359498035ff27918404787fe132b7ced6284f6ffdf20285224bf46d9f0",
            ),
            (
                ["probe", "--max-rank", "5", "--format", "csv"],
                "a6961577f8276408a548ddcc2a6f077ac997a72d0cb0d8ea3abba4e5829a302b",
            ),
            (
                ["selftest"],
                "718ca27f6ce5c4d993e2b12e9f1e178b9b5e84fb70ddc35b3fe1af1010509c9f",
            ),
            (
                ["selftest", "--format", "csv"],
                "1e28e00441bd3f352d797ec2626314aa83d6cf014e0b7fa4e3332519d2f51157",
            ),
            (
                ["graph", "--family", "E", "--rank", "6", "--format", "json"],
                "372d85fe24f72088ac956a9c8f12124c445879a5855636cb6ad33ccba2977600",
            ),
        ],
    )
    def test_stdout_is_pinned(self, capsys, argv, digest):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSelftest:
    def test_passes_on_healthy_build(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == len(cli.SELFTEST_CHECKS)
        assert "FAIL" not in out

    def test_csv_format(self, capsys):
        assert main(["selftest", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "check,passed"
        assert all(line.endswith("True") for line in lines[1:])

    def test_detects_injected_mutation_bug(self, capsys, monkeypatch):
        from clustercrypt.cluster import ExchangeMatrix

        def broken_mutate(matrix, k):
            # dropped sign factor on the adjustment term: the result is no
            # longer odd under negating row/column k, so mutating twice no
            # longer returns (or even stays sign-skew-symmetric)
            b = matrix.rows
            n = matrix.n
            rows = []
            for i in range(n):
                row = []
                for j in range(n):
                    if i == k or j == k:
                        row.append(-b[i][j])
                    else:
                        row.append(b[i][j] + max(0, b[i][k] * b[k][j]))
                rows.append(row)
            return ExchangeMatrix.from_lists(rows)

        monkeypatch.setattr(cli, "matrix_mutate", broken_mutate)
        assert main(["selftest"]) == 1
        out = capsys.readouterr().out
        assert "FAIL matrix-involution" in out
