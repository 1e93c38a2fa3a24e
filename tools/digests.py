#!/usr/bin/env python3
"""Check that a fixed set of generator runs still make the same steps.

    python3 tools/digests.py            # compare this tree against DIGESTS
    python3 tools/digests.py --print    # print this tree's table, to paste

Each run's digest is the sha256 of one "n,term,scan_length,bound_floor"
line per step, as in the golden-digest tests.  DIGESTS holds the digests of
a known-good tree; take new ones on the parent of a change, never on the
change under test.  The check exits 1 and names each run whose digest
differs.  Standard library only; the 21 runs take about 7 s in one
process on a 2-CPU Xeon.
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bhgreedy import Params, classic_greedy, strong_greedy  # noqa: E402

GENERATORS = {"strong": strong_greedy, "classic": classic_greedy}

#: (algorithm, h, g, n, sha256), taken at commit d308294 unless noted.
DIGESTS = [
    ("strong", 3, 2, 40,
     "fa95437a84a086ee241de9c1cbf71a7902b43734dc728f9adf6683e9ada3b114"),
    ("strong", 3, 2, 41,
     "d37d94e42df004fe01dd1d317c391b6ffdc131a7dab891212bf44338796c1b76"),
    ("strong", 3, 2, 42,
     "c0c5e603ce5e7df463ca3fe65c724508ab0c83f74bbd4800c04e131ab425eadb"),
    ("strong", 3, 2, 90,
     "cab2195e17c4ef53f00b3fee99ae825bfcf3a6422fc86717c79a33cf10a5cea9"),
    ("strong", 3, 2, 120,
     "f61efacde7b576205aaa738f4b046148c8497ea35764d9388deb784cd5b54bc7"),
    ("strong", 2, 3, 200,
     "6b322c34c8ee65996e1ae8c5a88e8ac5bc18be4bc3901408e2391233a7357bf6"),
    ("strong", 2, 2, 300,
     "6b18052322d1b6cfb9560fa696a06313cdf78d9cb2278eefb29c13cad9e57f68"),
    ("strong", 2, 2, 400,
     "99e33a7cd54ae757514600d6190deb16c8912f07733b8c898801783a93e21514"),
    ("strong", 3, 3, 50,
     "012aaad911cc033fbf67e265609e2e084407acfa29df7d3a30692e086ab298ad"),
    ("strong", 4, 2, 35,
     "f2933cda5216b8499eddd9cc9863a9fa56fd46f7b018933a635bb842f1fce256"),
    ("strong", 4, 256, 20,
     "083cc5bc148950ac9c0853f66db860bc7428d1959af9a281d8d9cc887c82a663"),
    ("strong", 2, 1, 240,
     "b84ae44d8fe24019faba7198da6ee4378094021b13d72b964e19ced9adcefcd4"),
    ("strong", 3, 1, 100,
     "e2e65f458f83f63f815a39d11a35d1e2a1ca9aa7ed2dedec29231fa095130f32"),
    ("classic", 4, 1, 17,
     "be65ba310f7ef2c47e086b7d23fabf165cac85538fe96c391b2333f9377b3260"),
    ("classic", 4, 1, 18,
     "cb093b626e8f0b65a037a0046342534aa3c1bff821242f84c9474f9d5fb96a4f"),
    ("classic", 4, 1, 19,
     "7bc782ad6facadda85c550d5dd19a15bfcd37b8839641922258080bde89fe717"),
    ("classic", 3, 2, 60,
     "d70394db5c670cb385b88e0b53f30d3160958bc77e60f7dc0a94fecf19ec2fcd"),
    ("classic", 2, 2, 200,
     "90d2fc0729fbb75975197f4d74098c8cbe2af973dfcee14ac3da9085b1f067c8"),
    # Taken at commit 8ef5a5d.  Strong (2,3,61) meets ten level
    # rejections from step 55 on; (3,3,19) and (4,3,12) meet only breaks.
    ("strong", 3, 3, 19,
     "c7475ac0be41204bde3c19630eae056bf5b8ec138af2e7aa17dcce18415cf789"),
    ("strong", 2, 3, 61,
     "4f7f1bdc05777d7c628d20edd02d88c3351783716d854da23908bb5a9657fd59"),
    ("strong", 4, 3, 12,
     "fe7c1069d766dea09136e2459f9268fcacf1001b88eba1a334cfc9798757a311"),
]


def digest(algorithm: str, h: int, g: int, n: int) -> str:
    rec = GENERATORS[algorithm](Params(h, g, n))
    text = "".join(f"{m.n},{m.term},{m.scan_length},{m.bound_floor}\n"
                   for m in rec.per_step)
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv: list[str]) -> int:
    if argv == ["--print"]:
        for algorithm, h, g, n, _ in DIGESTS:
            print(f'    ("{algorithm}", {h}, {g}, {n},\n'
                  f'     "{digest(algorithm, h, g, n)}"),')
        return 0
    if argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    bad = 0
    for algorithm, h, g, n, expected in DIGESTS:
        got = digest(algorithm, h, g, n)
        ok = got == expected
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {algorithm} ({h},{g},{n})"
              + ("" if ok else f": {got} != {expected}"))
    print(f"{len(DIGESTS) - bad} of {len(DIGESTS)} runs match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
