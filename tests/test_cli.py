"""Command-line behaviors: exit codes, outputs, file discipline."""

import argparse
import dataclasses
import hashlib
import itertools
import json
import time

import pytest

from clustercrypt import cli, cluster, crypto, fields
from clustercrypt.analysis import enumerate_exchange_graph
from clustercrypt.cli import main
from clustercrypt.cluster import DynkinSpec, dynkin_exchange_matrix


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


    def test_failed_rename_leaves_no_temp_file(self, tmp_path, capsys):
        out = tmp_path / "outdir"
        out.mkdir()
        code = main(
            [
                "params",
                "--p", "2", "--r", "5", "--f", "1,0,1,0,0,1",
                "--family", "A", "--rank", "5",
                "--out", str(out),
            ]
        )
        assert code == 64
        assert "Is a directory" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["outdir"]

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

    @pytest.mark.parametrize(
        "orientation, message",
        [
            ("0>1", "orientation must direct every edge exactly once"),
            ("0>1,1>2,0>2", "(0,2) is not a diagram edge"),
        ],
    )
    def test_orientation_that_is_not_a_diagram_orientation_is_usage_error(
        self, tmp_path, capsys, orientation, message
    ):
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
        assert message in capsys.readouterr().err


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

    def test_oversized_field_header_is_rejected_quickly(self, tmp_path, capsys):
        # GF(2^1500): the irreducibility test alone once ran for over 10 s
        params = tmp_path / "big.json"
        header = {
            "p": 2, "r": 1500, "f": [1, 1] + [0] * 1498 + [1],
            "diagram": {"family": "A", "rank": 1500},
        }
        params.write_text(json.dumps(header))
        out = tmp_path / "k.json"
        start = time.perf_counter()
        code = main(["keygen", "--params", str(params), "--length", "4", "--out", str(out)])
        assert time.perf_counter() - start < 1.0
        assert code == 64
        assert not out.exists()
        assert "outside the supported p <= 65521, r <= 32" in capsys.readouterr().err

    def test_rank_one_key_is_refused_before_any_draw(self, tmp_path, capsys):
        # A1 has no valid key; 20,000 draws of a million entries would hang
        params, out = tmp_path / "a1.json", tmp_path / "k.json"
        argv = ["params", "--p", "29", "--r", "1", "--f", "0,1", "--family", "A", "--rank", "1"]
        assert main([*argv, "--out", str(params)]) == 0
        capsys.readouterr()
        start = time.perf_counter()
        argv = ["keygen", "--params", str(params), "--length", "1000000", "--rng-seed", "5"]
        code = main([*argv, "--out", str(out)])
        assert time.perf_counter() - start < 1.0
        assert code == 64
        assert not out.exists()
        assert capsys.readouterr() == (
            "", "error: no valid key of length 1000000 found for rank 1\n"
        )

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

    def test_generated_seed_has_128_bits(self, ex1_files, tmp_path, capsys, monkeypatch):
        widths = []

        def randbits(k):
            widths.append(k)
            return (1 << k) - 1

        monkeypatch.setattr(cli.secrets, "randbits", randbits)
        drawn, given = tmp_path / "k1.json", tmp_path / "k2.json"
        argv = ["keygen", "--params", str(ex1_files[0]), "--length", "4", "--out"]
        assert main([*argv, str(drawn)]) == 0
        assert widths == [128]
        seed = str((1 << 128) - 1)
        assert f"rng-seed: {seed} (recorded" in capsys.readouterr().out
        assert main([*argv, str(given), "--rng-seed", seed]) == 0
        assert drawn.read_bytes() == given.read_bytes()


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

    @pytest.mark.parametrize(
        "name,text,message",
        [
            ("key", "params", "missing fields ['k0', 'seq']"),
            ("key", '{"seq": [1, 4]}', "missing fields ['k0']"),
            ("params", "key", "missing fields ['diagram', 'f', 'p', 'r']"),
            (
                "params",
                '{"p": 2, "r": 5, "f": [1, 0, 1, 0, 0, 1], "diagram": {"family": "A"}}',
                "missing diagram fields ['rank']",
            ),
        ],
        ids=["params-as-key", "key-without-k0", "key-as-params", "diagram-without-rank"],
    )
    def test_missing_file_fields_are_named(
        self, ex1_files, tmp_path, capsys, name, text, message
    ):
        files = dict(zip(("params", "key"), map(str, ex1_files)))
        # "params" and "key" stand for the other file itself
        files[name] = files.get(text) or str(tmp_path / "bad.json")
        (tmp_path / "bad.json").write_text(text)
        capsys.readouterr()
        code = main(
            [
                "encrypt",
                "--params", files["params"],
                "--key", files["key"],
                "--message", "F",
                "--out", str(tmp_path / "ct.json"),
            ]
        )
        assert (code, capsys.readouterr()) == (64, ("", f"error: {message}\n"))
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

    @pytest.mark.parametrize(
        "message,error",
        [
            ("", "error: message is empty\n"),
            ("  ", "error: message is empty\n"),
            # Arabic-Indic twelve: int() reads it, the message parser does not
            ("\u0661\u0662", "error: '\u0661' is not in the alphabet\n"),
            # dotless i and long s: str.upper() reads them as I and S
            ("\u0131\u017f", "error: '\u0131' is not in the alphabet\n"),
        ],
        ids=["empty", "blank", "non-ascii-digits", "non-ascii-letters"],
    )
    def test_message_without_records_is_usage_error(
        self, ex1_files, tmp_path, capsys, message, error
    ):
        params, key = ex1_files
        out = tmp_path / "ct.json"
        files = ["--params", str(params), "--key", str(key)]
        capsys.readouterr()
        assert main(["encrypt", *files, "--message", message, "--out", str(out)]) == 64
        assert capsys.readouterr() == ("", error)
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("blob", [b"", b"\n  \n\n"], ids=["empty", "blank-lines"])
    def test_ciphertext_without_records_is_usage_error(
        self, ex1_files, tmp_path, capsys, blob, fmt
    ):
        params, key = ex1_files
        ct = tmp_path / "ct.json"
        ct.write_bytes(blob)
        files = ["--params", str(params), "--key", str(key), "--ciphertext", str(ct)]
        capsys.readouterr()
        assert main(["decrypt", *files, "--format", fmt]) == 64
        assert capsys.readouterr() == (
            "", f"error: ciphertext file {ct} holds no records\n"
        )

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
        # each record is read against --params, not rebuilt from its header,
        # and a params file is validated once per process: a first command
        # tests the modulus once, a second one not at all
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
        crypto._params_from_header.cache_clear()
        assert main(["decrypt", *files, "--ciphertext", str(out)]) == 0
        assert len(calls) == 1
        calls.clear()
        assert main(["decrypt", *files, "--ciphertext", str(out)]) == 0
        assert calls == []

    def test_decrypt_builds_the_params_header_once(
        self, ex1_files, tmp_path, capsys, monkeypatch
    ):
        # the header bytes are built with the params, not once per record
        params, key = ex1_files
        out = tmp_path / "ct.json"
        files = ["--params", str(params), "--key", str(key)]
        assert main(["encrypt", *files, "--message", "HELLO", "--out", str(out)]) == 0
        calls = []
        original = crypto.SystemParams.to_dict

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(crypto.SystemParams, "to_dict", counting)
        assert main(["decrypt", *files, "--ciphertext", str(out)]) == 0
        assert len(calls) <= 1

    @pytest.mark.parametrize(
        "tamper,code,message",
        [
            ("zero-value", 3, "error: decryption failed at step 1\n"),
            ("negated-matrix", 3, "error: matrix did not return to the initial one\n"),
            ("invalid-key", 64, "error: invalid key: "),
            (
                "skew-lost",
                3,
                "error: entries (2,4)=8 and (4,2)=1 violate sign-skew-symmetry at step 3\n",
            ),
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
        elif tamper == "skew-lost":
            # a valid matrix whose third reverse step leaves sign-skew-symmetry:
            # a corrupt seed (exit 3), not a usage error
            payload["matrix"] = [
                [0, 0, -1, 3, 3], [0, 0, 1, 0, -1], [3, -1, 0, 0, 0],
                [-1, 0, 0, 0, 0], [-1, 2, 0, 0, 0],
            ]
        else:
            key.write_text('{"k0":0,"seq":[1,1,0]}')
        out.write_text(json.dumps(payload) + "\n")
        capsys.readouterr()
        assert main(["decrypt", *files, "--ciphertext", str(out)]) == code
        captured = capsys.readouterr()
        assert captured.err.startswith(message)
        assert captured.out == ""

    def test_key_schedule_is_built_once_per_command(
        self, ex1_files, tmp_path, monkeypatch
    ):
        # M_1..M_t depend on the key alone: each command mutates the rows
        # once per key step, however many records it handles
        params, key = ex1_files
        calls = []
        for module in (crypto, cluster):

            def counting(rows, k, _original=module.mutate_rows):
                calls.append(k)
                return _original(rows, k)

            monkeypatch.setattr(module, "mutate_rows", counting)
        out = tmp_path / "ct.json"
        files = ["--params", str(params), "--key", str(key)]
        assert main(["encrypt", *files, "--message", "HELLO", "--out", str(out)]) == 0
        assert calls == [1, 4, 0, 3, 1]
        calls.clear()
        assert main(["decrypt", *files, "--ciphertext", str(out)]) == 0
        assert calls == [1, 4, 0, 3, 1]

    @pytest.mark.parametrize(
        "zeroed,message",
        [
            (None, "error: integrity position 1 did not return to its base value\n"),
            (3, "error: decryption failed at step 2\n"),
        ],
        ids=["values-kept", "value-3-zeroed"],
    )
    def test_record_with_another_matrix_fails_as_before(
        self, ex1_files, tmp_path, capsys, zeroed, message
    ):
        # the last record carries the initial matrix in place of the key's
        # final one, so it is decrypted step by step, without the schedule;
        # the exit code and stderr are those of that walk, byte for byte
        params, key = ex1_files
        out = tmp_path / "ct.json"
        files = ["--params", str(params), "--key", str(key)]
        assert main(["encrypt", *files, "--message", "HELP", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        payload = json.loads(lines[-1])
        payload["matrix"] = dynkin_exchange_matrix(DynkinSpec("A", 5)).to_lists()
        if zeroed is not None:
            payload["values"][zeroed] = [0] * 5
        out.write_text("\n".join(lines[:-1] + [json.dumps(payload)]) + "\n")
        capsys.readouterr()
        assert main(["decrypt", *files, "--ciphertext", str(out)]) == 3
        assert capsys.readouterr() == ("", message)

    def test_record_outside_the_two_finite_matrices_fails_fast(self, tmp_path, capsys):
        # a sign-skew-symmetric matrix outside every finite-type class; walked
        # without the 2-finite check, its entries grew to 641,187 bits in 55
        # reverse steps and decrypt ran for more than 10 s
        params, key, ct = tmp_path / "p.json", tmp_path / "k.json", tmp_path / "ct"
        field = ["--p", "101", "--r", "7", "--f", "46,0,1,1,0,74,0,1"]
        assert main(["params", *field, "--family", "D", "--rank", "7", "--out", str(params)]) == 0
        keygen = ["--length", "60", "--rng-seed", "0", "--out", str(key)]
        assert main(["keygen", "--params", str(params), *keygen]) == 0
        files = ["--params", str(params), "--key", str(key)]
        assert main(["encrypt", *files, "--message", "A", "--out", str(ct)]) == 0
        payload = json.loads(ct.read_text())
        payload["matrix"] = [
            [0, 3, 0, -1, 0, -2, 1], [-3, 0, 0, 3, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0],
            [1, -3, 0, 0, 0, 2, 0], [0, 0, 0, 0, 0, 2, 3], [3, 0, 0, -3, -1, 0, 3],
            [-3, 0, 0, 0, -2, -3, 0],
        ]
        ct.write_text(json.dumps(payload) + "\n")
        capsys.readouterr()
        start = time.perf_counter()
        assert main(["decrypt", *files, "--ciphertext", str(ct)]) == 3
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr() == ("", "error: matrix is not 2-finite at step 2\n")

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
        assert dot.read_bytes() == (
            b"digraph quiver {\n  x0;\n  x1;\n  x2;\n  x0 -> x1;\n  x2 -> x1;\n}\n"
        )

    # sha256 of the written file, pinned before the quiver type was folded
    # into ExchangeMatrix.to_dot
    @pytest.mark.parametrize(
        "family,rank,digest",
        [
            ("A", "5", "ed8f5d687c138e3fc3c746f0f3d0d195921bf4b00ea653510553aadf0f8a41ee"),
            ("D", "4", "87cfbf86243c3110d0540d2ca6dbbe76dd36e8009f2c2d06736514154423e399"),
            ("E", "6", "f97519203f9333ee5b129bd955977446b0f697090324258ef350a6fb7cf87606"),
        ],
    )
    def test_graph_dot_bytes_are_pinned(self, tmp_path, capsys, family, rank, digest):
        dot = tmp_path / "q.dot"
        assert main(["graph", "--family", family, "--rank", rank, "--dot", str(dot)]) == 0
        assert hashlib.sha256(dot.read_bytes()).hexdigest() == digest

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

    # sha256 of the ciphertext file and of decrypt's stdout, pinned before
    # the key schedule kept rows in place of matrices
    @pytest.mark.parametrize(
        "field,diagram,keygen,message,ct_digest,out_digest",
        [
            (
                ["--p", "2", "--r", "5", "--f", "1,0,1,0,0,1"],
                ["--family", "A", "--rank", "5"],
                ["--rng-seed", "42", "--length", "6"],
                "HELP",
                "c7f06c291660a094532be9d7ef9d32731bc1391344e96aaa3a0160fab930d4f6",
                "a3b66c1f4d1e1e4080f7a6aa6869b7f4078350af31cb889d882010a1cd415708",
            ),
            (
                ["--p", "101", "--r", "7", "--f", "46,0,1,1,0,74,0,1"],
                ["--family", "D", "--rank", "7"],
                ["--rng-seed", "4", "--length", "20"],
                "HELLOWORLD",
                "0f97477b501bcef7694d077828428e14813d14ee29745b5d86cabc2ec0468661",
                "ab9890d67da0b8528c2572afe922ddc2590dd3f7b0f392b8786d66ed2634c462",
            ),
        ],
        ids=["readme-A5", "D7"],
    )
    def test_session_is_pinned(
        self, tmp_path, capsys, field, diagram, keygen, message, ct_digest, out_digest
    ):
        params, key, ct = tmp_path / "p.json", tmp_path / "k.json", tmp_path / "ct"
        assert main(["params", *field, *diagram, "--out", str(params)]) == 0
        assert main(["keygen", "--params", str(params), *keygen, "--out", str(key)]) == 0
        files = ["--params", str(params), "--key", str(key)]
        assert main(["encrypt", *files, "--message", message, "--out", str(ct)]) == 0
        assert hashlib.sha256(ct.read_bytes()).hexdigest() == ct_digest
        capsys.readouterr()
        assert main(["decrypt", *files, "--ciphertext", str(ct)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == out_digest

    def test_encryption_failures_are_pinned(self, tmp_path, capsys, monkeypatch):
        # sha256 over (exit code, stdout, stderr) of 600 GF(2^5)/A5 encrypt
        # commands, pinned with the packed multiply and extended Euclid,
        # before small fields took log tables: every exit 2 and its
        # "encryption failed at step N" line, and every record printed
        # before it, must stay byte-identical
        monkeypatch.chdir(tmp_path)
        field = ["--p", "2", "--r", "5", "--f", "1,0,1,0,0,1"]
        assert main(["params", *field, "--family", "A", "--rank", "5", "--out", "p"]) == 0
        files = ["--params", "p", "--key", "k"]
        alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
        digest, codes = hashlib.sha256(), []
        for seed in range(200):
            keygen = ["--rng-seed", str(seed), "--length", str(5 + seed % 4)]
            assert main(["keygen", "--params", "p", *keygen, "--out", "k"]) == 0
            capsys.readouterr()
            for message in (alphabet, alphabet[::-1], "HELP"):
                code = main(["encrypt", *files, "--message", message, "--out", "ct"])
                out, err = capsys.readouterr()
                digest.update(repr((code, out, err)).encode())
                codes.append(code)
        assert (codes.count(0), codes.count(2)) == (137, 463)
        assert digest.hexdigest() == (
            "d7082d3a791c1bdeea58689a3959ecb02c4e7a5b365052eb07e9647d419a2c51"
        )


def _every_other_call_shifted(real):
    calls = itertools.count()

    def fault(matrix, k):
        return real(matrix, (k + next(calls) % 2) % matrix.n)

    return fault


def _first_step_only(real):
    def fault(values, matrix, seq, field):
        return real(values, matrix, seq[:1], field)

    return fault


def _off_by_one(real):
    def fault(params, key, ct):
        message = real(params, key, ct)
        return fields.ext_add(message, params.field.one(), params.field)

    return fault


def _reference_matrix_mutated(real):
    def fault(params, key, message, reference_path=False):
        ct = real(params, key, message, reference_path=reference_path)
        if reference_path:
            ct = crypto.CiphertextSeed(ct.values, cluster.matrix_mutate(ct.matrix, 0))
        return ct

    return fault


def _one_vertex_isolated(real):
    def fault(matrix, budget=50_000):
        graph = real(matrix, budget)
        return dataclasses.replace(graph, adjacency=graph.adjacency[:-1] + ((),))

    return fault


def _one_root_dropped(real):
    def fault(cartan):
        system = real(cartan)
        return dataclasses.replace(system, roots=system.roots[:-1])

    return fault


def _values_reversed(real):
    def fault(blob, params):
        ct = real(blob, params)
        return crypto.CiphertextSeed(ct.values[::-1], ct.matrix)

    return fault


class TestSelftest:
    @pytest.mark.parametrize(
        "check, name, fault",
        [
            ("matrix-involution", "matrix_mutate", _every_other_call_shifted),
            ("numeric-involution", "apply_sequence", _first_step_only),
            ("round-trip", "decrypt", _off_by_one),
            ("oracle-equivalence", "encrypt", _reference_matrix_mutated),
            ("exchange-counts", "enumerate_exchange_graph", _one_vertex_isolated),
            ("root-axioms", "generate_root_system", _one_root_dropped),
            ("wire-round-trip", "deserialize_ciphertext", _values_reversed),
        ],
    )
    def test_injected_fault_fails_its_check(
        self, check, name, fault, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, name, fault(getattr(cli, name)))
        assert main(["selftest"]) == 1
        captured = capsys.readouterr()
        assert f"FAIL {check}" in captured.out.splitlines()
        (failed,) = [
            line for line in captured.err.splitlines() if line.startswith("failed: ")
        ]
        assert check in failed.removeprefix("failed: ").split(", ")

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
            return ExchangeMatrix(rows)

        monkeypatch.setattr(cli, "matrix_mutate", broken_mutate)
        assert main(["selftest"]) == 1
        out = capsys.readouterr().out
        assert "FAIL matrix-involution" in out


class TestArgumentParser:
    @pytest.mark.parametrize(
        "argv",
        [
            ["encrypt", "--params", "x"],
            ["keygen", "--params", "x", "--length", "abc", "--out", "k"],
            ["nope"],
            ["graph", "--family", "A", "--rank", "3", "--format", "xml"],
        ],
        ids=["missing-option", "length-abc", "unknown-subcommand", "bad-format"],
    )
    def test_argument_errors_exit_64(self, capsys, argv):
        # 2 means "encryption failure: re-key", so a typo must not exit 2
        assert main(argv) == 64
        out, err = capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.build_parser.__wrapped__().parse_args(argv)
        assert exc.value.code == 2
        assert (out, err) == capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: clustercrypt")
        assert ": error: " in err.splitlines()[-1]

    @pytest.mark.parametrize(
        "command",
        [None, "params", "keygen", "encrypt", "decrypt", "graph", "probe", "selftest"],
    )
    def test_help_text_is_unchanged_by_reuse(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        argv = ["--help"] if command is None else [command, "--help"]

        def help_text(parse):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            assert exc.value.code == 0
            out, err = capsys.readouterr()
            assert err == ""
            return out

        first = help_text(main)
        assert first.startswith("usage: clustercrypt")
        assert help_text(main) == first
        assert help_text(cli.build_parser.__wrapped__().parse_args) == first

    def test_parser_is_built_once_per_process(self, ex1_files, tmp_path, monkeypatch):
        # the fixture's `params` call built the parser; later commands reuse it
        params, key = ex1_files
        built = []
        original = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        key2, ct = tmp_path / "k2.json", tmp_path / "ct"
        files = ["--params", str(params), "--key", str(key)]
        argvs = [
            ["keygen", "--params", str(params), "--length", "4", "--rng-seed", "1",
             "--out", str(key2)],
            ["encrypt", *files, "--message", "HELP", "--out", str(ct)],
            ["decrypt", *files, "--ciphertext", str(ct), "--format", "json"],
            ["graph", "--family", "A", "--rank", "3"],
            ["probe", "--max-rank", "2"],
        ]
        for argv in argvs:
            assert main(argv) == 0
        assert main(["encrypt", "--params", str(params)]) == 64
        assert built == []

    def test_graph_does_not_see_the_last_call_options(self, ex1_files, capsys):
        params, _ = ex1_files
        assert main(["graph", "--params", str(params), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["diagram"] == "A5"
        assert main(["graph", "--family", "A", "--rank", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("exchange graph of A3\n  mutation classes: 14\n")

    def test_decrypt_format_returns_to_its_default(self, ex1_files, tmp_path, capsys):
        params, key = ex1_files
        ct = tmp_path / "ct"
        files = ["--params", str(params), "--key", str(key)]
        assert main(["encrypt", *files, "--message", "HELP", "--out", str(ct)]) == 0
        capsys.readouterr()
        argv = ["decrypt", *files, "--ciphertext", str(ct)]
        assert main([*argv, "--format", "json"]) == 0
        assert [d["letter"] for d in json.loads(capsys.readouterr().out)] == list("HELP")
        assert main(argv) == 0
        assert capsys.readouterr().out == "8 (H)\n5 (E)\n12 (L)\n16 (P)\ntext: HELP\n"

    def test_usage_error_leaves_the_next_call_as_a_first_call(
        self, ex1_files, tmp_path, capsys
    ):
        params, key = ex1_files
        ct = tmp_path / "ct"
        argv = ["encrypt", "--params", str(params), "--key", str(key),
                "--message", "HELP", "--out", str(ct)]
        cli.build_parser.cache_clear()
        capsys.readouterr()
        assert main(argv) == 0
        first = capsys.readouterr(), ct.read_bytes()
        ct.unlink()
        assert main(["encrypt", "--params", str(params), "--message", "HELP"]) == 64
        capsys.readouterr()
        assert main(argv) == 0
        assert (capsys.readouterr(), ct.read_bytes()) == first
