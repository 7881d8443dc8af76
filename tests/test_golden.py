"""Golden reports: every command, statement and search kind, byte for byte.

Each entry is an invocation, its exit code and the sha256 of its report.
The verify and search digests were recorded before the grid statements
moved onto the shared row evaluator, the count and inject digests before
every command moved onto the one report writer, the last four inject
digests before partitions became plain {index: multiplicity} maps, the
last seven entries (counts to n = 2000-3000) before the +-r (mod M)
tables moved onto the triple-product recurrence, and the reports must
not drift.  Two entries differ from that recording on purpose:

* ``verify ceiling --a 2 --d 1 --n-max 1 --force`` no longer attaches a
  witness to its out-of-hypothesis cell (only failing cells carry one).
* ``verify modified-st --a 3 --d 9 --n-max 80 --format human`` now exits 0
  with 80 out-of-hypothesis cells.  Its T's modulus d + d_hat - a = 6 is
  2a, so +-3 (mod 6) is one class and excluding 6 - 3 = 3 leaves T =
  {9, 15, ...}, which does not start at a = 3.  The element-domination
  premise fails, and the cells that were reported as 25 failures are
  outside the statement's hypothesis.
"""

import hashlib
import json
from pathlib import Path

from alder import cli

#: the benchmark's correctness gate: exit code and report sha256 per input
BENCHMARK_EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"

GOLDEN = [
    ("verify shift --N 2..3 --d 63..64 --n-max 200", 0,
     "c0a66026176a719e967649dcf0cec6774fd4e147285ce96dfa4f26b6374fce6c"),
    ("verify shift --N 2 --d 63 --n-max 80 --force", 0,
     "2d76d990d0faa6cfa7fde8ac08d695826598c70289bf832097d917bde2ab2f46"),
    ("verify shift --N 4..6 --d 3..12 --n-max 40 --force --format human", 0,
     "c5fd62c6f4cb5386db02f74b8a3aa53a28f0477a30ea668abbc2fc7e32ee6a37"),
    ("verify shift --N 2 --d 63 --n-min 60 --n-max 90 --format csv", 0,
     "daf7751831c824036dcbf2602352c8aff14d27d8ea9e803a4fc402eb68639cba"),
    ("verify littlelemon --d 105 --n-min 100 --n-max 200 --format human", 0,
     "5d80d8dee4b42aa5dfa3f3ed332f374fc4605208fef90279b0cefdca9880a948"),
    ("verify gen-kp --a 4 --d 417 --n-max 500", 0,
     "190e46bf7e82053854b4bf7c31a88fd0b3eb318d4d0e30e7d1db21c84dbaae3b"),
    ("verify gen-kp --a 2 --d 19 --n-max 60 --force", 0,
     "ad44939ee77237d3518b9bdfb47dc8e3bc4c3f671ff4776b2ed6304a44a53137"),
    ("verify gen-kp --a 2 --d 19 --n-max 10 --format human", 0,
     "55cb8703b35c648129c3c582bee6d7121a93b4f6010f8dfd42af9774c780d38b"),
    ("verify gen-dkst --a 4 --d 417 --n-max 450 --format csv", 0,
     "ed0d8eacdbeebe41820bac6132f17ffa7e625fc957fd2ae311c54ef74091a75a"),
    ("verify gen-dkst --a 3 --d 9 --n-max 60 --force --format human", 0,
     "2384ff628a250a2320f403e07354c0f8de7e3e763b54cf4da34c7a063ff017ff"),
    ("verify gen-dkst --a 1 --d 105 --n-max 300", 0,
     "013c29f04b222ac3ed643532f93d949cdc8677768008dbabe671829162507670"),
    ("verify ceiling --a 1..3 --d 1..5 --n-max 40", 0,
     "d9338e31e832f664db4bde79c7af5b12a27e8b7a8b5805c5950823ed489dc29f"),
    ("verify ceiling --a 2 --d 1 --n-max 1 --force", 0,
     "7299fa2037ee36a1508da1749297fc87ce7d032ff0001b0c881b09537ff14ffe"),
    ("verify ceiling --a 2..3 --d 4..6 --n-max 30 --format human", 0,
     "4744f10a811fbaf365576dcf601723e4f972c3cfc14ce5899fb760acf4e63b9f"),
    ("verify ceiling --a 2..3 --d 1..6 --n-max 30 --force --format csv", 0,
     "018445f0c0d55a2030825cfbeb8f10c7d684446b454cce6cf6ce05716f6215af"),
    ("verify a-to-1 --a 1..4 --d 1..9 --n-max 30", 0,
     "69b6b02bd0dac3a57ce31a3b03c3ef40cd9a0cfd4c69453c8a5d2000d141aff2"),
    ("verify a-to-1 --a 2..3 --d 3..9 --n-max 20 --format csv", 0,
     "be7f4b74fd0d92ed1ad20268b2a0dbe0996e4bff026efbbc2d0748012c256628"),
    ("verify modified-st --a 4 --d 417 --n-max 100", 0,
     "23baaa830dc9a388ff8f47ab972fc5022219a7e3eca5939bd117025c3723a21b"),
    ("verify modified-st --a 3 --d 9 --n-max 80 --format human", 0,
     "5bdeeb111c4615ce50b81dc1a53c61ca40d27775c8ec9e034392c7d7fd11c99c"),
    ("verify anchors --d 63 --N 2", 0,
     "659098649b0554b332b72fad71b8f698e3643628781ab5375d5ad1e59d35edba"),
    ("verify anchors --d 20 --N 2 --force --format human", 0,
     "2d00e5ca9b7746b91d4824d76704c6f4fbc1fdad67d65f50e230bb1026a98af6"),
    ("verify xy-diff --d 63 --N 3", 0,
     "8a20edf90e8850839f661682f94fff8e2465659b2c6f8939fcaad9efc55db60f"),
    ("verify t-monotone --d 31 --n-max 100 --format csv", 0,
     "d59a10730d483e8def3d359cb46783535d3373fcacc2487e3969d05142ff6636"),
    ("search --kind delta --a 2 --d 1..10 --n-max 100", 0,
     "825073bbfaa7d053f6f379caab1fe3d8094f1e012a68ee48078d03544e1c12ac"),
    ("search --kind delta_m --a 4..6 --d 3..22 --n-max 40 --format csv", 0,
     "5aba6f51a151c03e4e8219d6c0aed4eb037b612a7d42b094e49d9dcf31dfd225"),
    ("search --kind delta-mm --a 2..6 --d 1..4 --n-max 80 --format human", 0,
     "03a6326cc4b4eca5e61872647f7335d1762906b2776c0d1253944b6e4e7ce2e3"),
    ("search --kind shift --N 2..6 --d 3..12 --n-max 60", 0,
     "3c7c31ef266ffaaad775aab67c3fdd22a2438b2837aa6265fe3444258f65c3bd"),
    ("search --kind shift --N 3 --d 3..20 --n-max 50 --format human", 0,
     "3b3d89a0c3fff60b06d2977591b85d16191a858bace3338e08eb30f7767ac013"),
    ("count --kind q --a 1 --d 2 --n 0..30", 0,
     "f4b7612a64223c1f8928408848c1e83540dbaa7eba06a1f32bea3d43aa0dd957"),
    ("count --kind rho --set S --d 63 --N 2 --n 60..70 --format csv", 0,
     "5db6feb78ad6a284ceafac1f4d4d113697ff56dc13bd43e68b6246adda1812cc"),
    ("count --kind delta_m --a 2 --d 5 --n 1..25 --format human", 0,
     "ca53de394711e18e2af2172ca80a76eec37d44a5bae47ff60223e5e9be4c3d6c"),
    ("count --kind g --d 63 --n 300..305 --format csv", 0,
     "9d76fc96db4590924f354c5882208d163e3ba01c4dcee558fbed41f3414b05ee"),
    ("count --kind rho --set T --s 5 --d 63 --n 0..12 --format human", 0,
     "fad140e8648e07a65dc5dbc4ac3cbeddfa32b4c07adb87296bbe557686957974"),
    ("inject --d 63 --N 2 --n 455..457", 0,
     "85efa2f070b4c8a6df62530f0c6c2a840686808f2f6f658b3d5923de5464ea69"),
    ("inject --d 63 --N 3 --n 455..456 --format human", 0,
     "a3745146cdf2681cd3e3a153eb9a93bd8daf17e766dbedc5f3cdefd0d52c1597"),
    ("inject --d 12 --N 4 --n 100 --force", 0,
     "82ba6384aa7bf02415c882d4f5983e179e2975bc8989c9aeda617d2571014884"),
    ("inject --d 12 --N 4 --n 100..101 --format human", 0,
     "078f599ee3cbd3a612a96939f72dc5a80656fb31a2296702aa52a330a82c9b61"),
    ("inject --d 12 --N 4 --n 100 --force --format human", 0,
     "ea1c449779cc12b53055b36fedf10ed391a94633250568cf8471d1bbc9370f38"),
    ("inject --d 63 --N 2 --n 455..456 --format csv", 0,
     "1bceb4aa22f374b36b7b4bda88d619f3dbcecfaf0e1006dbeece74f7ad8d3409"),
    ("inject --d 63 --N 2 --n 455..458 --jobs 2", 0,
     "e2aaa48164c59052c07d4406e43ee9e654caff63c4f44ba48741cba8d8dafde0"),
    # forced cells whose witnesses carry partition maps: stats errors, the
    # p_2 bound, negative phi2 images and the order of the first five
    ("inject --d 31 --N 10 --n 420 --force", 0,
     "8bf160709e72856ff4116fd97483fd74a9d9e919e22bbb119f659ccd0fa61d86"),
    ("inject --d 31 --N 9 --n 120..130 --force", 0,
     "0cf75526f09f935bdaf11813dd6049d1f928a0190b89ca20726ecaf0cc710ec2"),
    # 50 witnesses, the first five stats errors: the report still names
    # p2_lower_bound and injective, which fail only after them
    ("inject --d 31 --N 9 --n 300 --force", 0,
     "0c38e419b589ad72a79bd9c11c161688b5eb2575ec584ca698cf52ff58a630eb"),
    ("inject --d 40 --N 3 --n 290 --force --format human", 0,
     "b22d2f9f85b8582269c47b3ef6d74778a56dc5fddb0be72baa5922f0de1dc709"),
    ("inject --d 63 --N 3 --n 455..460", 0,
     "a2ebf6c1369d6c96a2186d650cf0fe6c4a42c70eab61e1ec22bc8f4fceeec539"),
    # a forced range across n = 7d + 14: two out-of-hypothesis cells whose
    # structural check falls back to the exhaustive one (p2_lower_bound and
    # injective witnesses), then two holds cells
    ("inject --d 63 --N 3 --n 453..456 --force", 0,
     "776bfcc77460cdb0fd2e7e82d4e3448b243e027781832c040e20161392c4ecd8"),
    # Q-type tables far past the first 64 entries, dense and sparse moduli,
    # the smaller residue excluded (Qm at a=6, d=5) and both excluded
    ("count --kind Q --a 2 --d 5 --n 1..2000", 0,
     "dbd68a0b54b1cd7cbd3a33f8796ce0181ddbdc1c49ed9e07691c9b641e7e0662"),
    ("count --kind Qm --a 1 --d 61 --n 300..2100 --format csv", 0,
     "74ac3036f76ab0e375406d520a480b334efa67da44ab7b42f9724c33522e05f7"),
    ("count --kind Qm --a 6 --d 5 --n 1..2000 --format human", 0,
     "4f30015fcd0fe853fed9d2bb4dc501e2c4d7040e17a84b2781fde7dd925b83bb"),
    ("count --kind Qmm --a 4 --d 417 --n 400..2400", 0,
     "6cb56dc474639b44c2cd28c5419de55a2b526aa0a0704a6cac0fb338098e30a8"),
    ("count --kind delta_mm --a 3 --d 7 --n 1..3000", 0,
     "cd29eae4f9d57e05578ce9cc60e728f4012c8f521a1736246b22191b4ba49cf5"),
    ("verify gen-dkst --a 3 --d 40 --n-max 2000 --force --format csv", 0,
     "8dac2496e935066b471f0902fa09187377fd64956ad484f4d0744bb06e466339"),
    ("verify modified-st --a 2 --d 9 --n-max 1000", 0,
     "c6174d66a5aeaebc89a3b26eb7650d9ea6d205c28ee553a19ad2b1ee5571970c"),
]


def test_reports_match_recorded_digests(capsys):
    drift = []
    for argv, want_code, want_sha in GOLDEN:
        code = cli.main(argv.split())
        out = capsys.readouterr().out
        sha = hashlib.sha256(out.encode()).hexdigest()
        if (code, sha) != (want_code, want_sha):
            drift.append((argv, code, sha))
    assert not drift


def test_first_benchmark_input_of_each_command_matches(capsys):
    # a drift here would fail every benchmark run of that workload
    with open(BENCHMARK_EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    first = {}
    for argv, want in expected.items():
        first.setdefault(argv.split()[0], (argv, want))
    assert sorted(first) == ["count", "inject", "search", "verify"]
    drift = []
    for argv, want in first.values():
        code = cli.main(argv.split())
        sha = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        if (code, sha) != (want["exit"], want["sha256"]):
            drift.append((argv, code, sha))
    assert not drift
