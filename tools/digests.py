#!/usr/bin/env python3
"""Check that a fixed set of generator runs still make the same steps, and
that a fixed set of diagnose runs still write the same ledgers.

    python3 tools/digests.py            # compare this tree against the tables
    python3 tools/digests.py --print    # print this tree's tables, to paste

Each generator run is one ``generate --format json`` command, run in
process.  It has two digests: the sha256 of one
"n,term,scan_length,bound_floor" line per step, read from the document's
per_step rows as in the golden-digest tests, and the sha256 of the
document's bytes.  Each ledger is the sha256 of the file that
``diagnose --h H --g G --n N --out FILE`` writes.  DIGESTS and LEDGERS
hold the digests of a known-good tree; take new ones on the parent of a
change, never on the change under test.  The check exits 1 and names each
run whose step, document or ledger digest differs.  Standard library only;
the 23 runs and 5 ledgers take about 6 s in one process on a 2-CPU Xeon.
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bhgreedy import cli  # noqa: E402

#: (algorithm, h, g, n, step sha256, document sha256).  The step digests
#: were taken at commit d308294 unless noted, the document digests at
#: commit 7f0303c.
DIGESTS = [
    ("strong", 3, 2, 40,
     "fa95437a84a086ee241de9c1cbf71a7902b43734dc728f9adf6683e9ada3b114",
     "5c47ec10c3c01a7b9e1199bda133a3e81ee916712f301f3c2f42982061e0efd8"),
    ("strong", 3, 2, 41,
     "d37d94e42df004fe01dd1d317c391b6ffdc131a7dab891212bf44338796c1b76",
     "a80eebeb14d67863849d2414a35100ab1028eaf8badd0b04cfd9b33953c0db50"),
    ("strong", 3, 2, 42,
     "c0c5e603ce5e7df463ca3fe65c724508ab0c83f74bbd4800c04e131ab425eadb",
     "544bb3b6f3b71c8593d0943d13b8e23e0dd84d4116f58643534e8c00d13845a8"),
    ("strong", 3, 2, 90,
     "cab2195e17c4ef53f00b3fee99ae825bfcf3a6422fc86717c79a33cf10a5cea9",
     "fb564eabb2e49e04f92acd875d19957b6b592b8454a36a938562ac9c1b7bee5f"),
    ("strong", 3, 2, 120,
     "f61efacde7b576205aaa738f4b046148c8497ea35764d9388deb784cd5b54bc7",
     "d8ccae30634f580c976d402732378d4d32914b1bab0b0ae071253eaf81643750"),
    ("strong", 2, 3, 200,
     "6b322c34c8ee65996e1ae8c5a88e8ac5bc18be4bc3901408e2391233a7357bf6",
     "aa02ee3b7f8482e65bd6c0004fd31a00e3c84c3e2f05c49b0a31a3947377721a"),
    ("strong", 2, 2, 300,
     "6b18052322d1b6cfb9560fa696a06313cdf78d9cb2278eefb29c13cad9e57f68",
     "4730b77064017665b03db19fe5dd3043cd2f135a2ed487729fe9369912c9dc48"),
    ("strong", 2, 2, 400,
     "99e33a7cd54ae757514600d6190deb16c8912f07733b8c898801783a93e21514",
     "5d421827dbc98372decdbcfbd82a18c3563133b84cfbea17954dc577fbaefab8"),
    ("strong", 3, 3, 50,
     "012aaad911cc033fbf67e265609e2e084407acfa29df7d3a30692e086ab298ad",
     "f53dfbc6feb9c8155132f0d9e93901edc886a620949ed524c89f8c858bb72709"),
    ("strong", 4, 2, 35,
     "f2933cda5216b8499eddd9cc9863a9fa56fd46f7b018933a635bb842f1fce256",
     "cbb226f5b0248bfa81815f39f12a89074a1be447c1df874978235db85b42474c"),
    ("strong", 4, 256, 20,
     "083cc5bc148950ac9c0853f66db860bc7428d1959af9a281d8d9cc887c82a663",
     "5d9f7c5c697109a02f11b68edd015a29fb6fb1c917d30091b958aac41f6d9289"),
    ("strong", 2, 1, 240,
     "b84ae44d8fe24019faba7198da6ee4378094021b13d72b964e19ced9adcefcd4",
     "3431b88014777060c9651009de763e19be9c149590c62f4607239cd5f28f1cfa"),
    ("strong", 3, 1, 100,
     "e2e65f458f83f63f815a39d11a35d1e2a1ca9aa7ed2dedec29231fa095130f32",
     "8f69c68fc24e8bbc61d0692d69da99471f5fb7bc70a2ea6eea6b80df17db765b"),
    ("classic", 4, 1, 17,
     "be65ba310f7ef2c47e086b7d23fabf165cac85538fe96c391b2333f9377b3260",
     "c7d83d966157a6751517223d28dc62c6ad9137de8397fb873c284c7aa36465f7"),
    ("classic", 4, 1, 18,
     "cb093b626e8f0b65a037a0046342534aa3c1bff821242f84c9474f9d5fb96a4f",
     "b0f19d8fd554f34bd12fff890da8a214b47f22c0b92f2ff4b935c8165d079ff6"),
    ("classic", 4, 1, 19,
     "7bc782ad6facadda85c550d5dd19a15bfcd37b8839641922258080bde89fe717",
     "582a6a646ee4e09ae0dd049ebb1d974c0d4bd688fc036638f8fba468fb77cc4a"),
    ("classic", 3, 2, 60,
     "d70394db5c670cb385b88e0b53f30d3160958bc77e60f7dc0a94fecf19ec2fcd",
     "d128595b48151885b999304d6cc648ff670d75fdd9493d73fe6a61154b9a0a5f"),
    ("classic", 2, 2, 200,
     "90d2fc0729fbb75975197f4d74098c8cbe2af973dfcee14ac3da9085b1f067c8",
     "acbe6c1e1143606b0babc32e7a306226d724001d06ffca7c411bb167f8f8083b"),
    # Step digests taken at commit 8ef5a5d.  Strong (2,3,61) meets ten level
    # rejections from step 55 on; (3,3,19) and (4,3,12) meet only breaks.
    ("strong", 3, 3, 19,
     "c7475ac0be41204bde3c19630eae056bf5b8ec138af2e7aa17dcce18415cf789",
     "fefa6e89108c2f424ad550c59ccf930eb5721d064081e820a669a99502bd94c1"),
    ("strong", 2, 3, 61,
     "4f7f1bdc05777d7c628d20edd02d88c3351783716d854da23908bb5a9657fd59",
     "da0bd4618409f2d451abde9367ad8bacd3493cbbf6efcbbe737ba6bc83ff2a1d"),
    ("strong", 4, 3, 12,
     "fe7c1069d766dea09136e2459f9268fcacf1001b88eba1a334cfc9798757a311",
     "d092aa1208c0f8cd49cb7a9862f481ea449b0d7103c26623a190d1bb506925e6"),
    # Both digests taken at commit ad7da4c.  Classic (4,2,20) builds E in
    # two rounds from a base at most 7 below its largest element.
    ("classic", 4, 2, 20,
     "9b138a3ec69838615bdba9fd2ee6cf79fc530b1473ecdf3e1d0f767681644eb5",
     "752fb096291085d634909ef0a65e3364ad3b92b9d801ea2eb51fc16122eca8d7"),
    ("classic", 3, 3, 40,
     "cc1ecff21c99e73c44ee93ebdeff4862e4856efb5c866c7df9e4647c3fee09df",
     "18b8321742a8d60db4a6b370f0453641a7779f57fba88e2f806fb5d2a77d0255"),
]

#: (h, g, n, sha256 of the strong run's diagnose ledger), taken at commit
#: 5bbd3d2.
LEDGERS = [
    (2, 2, 60,
     "bc8160c93ba7d617e13d9e63d8aeb612f57bd3b96adb6f9913d66a95c48a7e3f"),
    (3, 2, 20,
     "5b58a6d64b2c29e8b8f18692149d349f41b78819c47fe27ff8e27412e48c119f"),
    (2, 3, 30,
     "a88b5e6ddcc99648a35076e6d6b06ff0a6a1f3a7c9e1c9534e666da06f55abb4"),
    (4, 2, 8,
     "8fd3f79970c8063997cb432eb03b74a0c6124e9405db6d76f4d0199f54135a27"),
    (3, 1, 12,
     "7f2ad5829da3bffcab0b396e5e375f1c92893b08259811282a132c371fc12fbf"),
]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(algorithm: str, h: int, g: int, n: int) -> tuple[str, str]:
    """The step digest and the document digest of one generate run."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["generate", "--algo", algorithm, "--h", str(h),
                     "--g", str(g), "--n", str(n), "--format", "json"])
    if code != cli.EXIT_OK:
        raise SystemExit(f"generate {algorithm} ({h},{g},{n}) exited with {code}")
    text = out.getvalue()
    steps = "".join(f"{m['n']},{m['term']},{m['scan_length']},{m['bound']}\n"
                    for m in json.loads(text)["per_step"])
    return sha256(steps), sha256(text)


def ledger_digest(h: int, g: int, n: int) -> str:
    """The sha256 of the diagnose ledger of the strong (h, g, n) run."""
    with tempfile.TemporaryDirectory(prefix="bhg-digests-") as tmp:
        out = Path(tmp) / "ledger.json"
        with redirect_stdout(io.StringIO()):
            code = cli.main(["diagnose", "--h", str(h), "--g", str(g),
                             "--n", str(n), "--out", str(out)])
        if code not in (cli.EXIT_OK, cli.EXIT_VERIFY_FAIL):
            raise SystemExit(f"diagnose ({h},{g},{n}) exited with {code}")
        return hashlib.sha256(out.read_bytes()).hexdigest()


def main(argv: list[str]) -> int:
    if argv == ["--print"]:
        for algorithm, h, g, n, *_ in DIGESTS:
            steps, doc = digests(algorithm, h, g, n)
            print(f'    ("{algorithm}", {h}, {g}, {n},\n'
                  f'     "{steps}",\n'
                  f'     "{doc}"),')
        for h, g, n, _ in LEDGERS:
            print(f'    ({h}, {g}, {n},\n     "{ledger_digest(h, g, n)}"),')
        return 0
    if argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    bad = 0
    for algorithm, h, g, n, *expected in DIGESTS:
        got = digests(algorithm, h, g, n)
        wrong = [f"{kind} {a} != {b}"
                 for kind, a, b in zip(("steps", "document"), got, expected)
                 if a != b]
        bad += bool(wrong)
        print(f"{'FAIL' if wrong else 'ok  '} {algorithm} ({h},{g},{n})"
              + "".join(f": {w}" for w in wrong))
    for h, g, n, expected in LEDGERS:
        got = ledger_digest(h, g, n)
        bad += got != expected
        print(f"{'ok  ' if got == expected else 'FAIL'} diagnose ({h},{g},{n})"
              + ("" if got == expected else f": ledger {got} != {expected}"))
    total = len(DIGESTS) + len(LEDGERS)
    print(f"{total - bad} of {total} runs match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
