"""Byte-for-byte pins of command outputs.

Each digest is the sha256 of the standard output of one command.  A change
to the table calculus, the nucleus, the presentation or the limit-space
approximations that alters any of these outputs, even in formatting or
relator order, fails here.  To regenerate after a deliberate change of
output, run each command through `selfsim.cli.main` and hash what it
prints.
"""

import hashlib
from pathlib import Path

import pytest

from selfsim.cli import main

GOLDEN = [
    ("present adding --json --no-cache",
     "bd134b6386e880d1c5138465df35284ccbb2aec7d062bccbe40cbe423707b78d"),
    ("present adding --verify --no-cache",
     "c432ff73f3e59a635c24473b8f380e7e0a8f601abbfe6b936ea9732eb98190f5"),
    ("nucleus adding --json --no-cache",
     "65a295479f1ef81b812c1951398e58acba9e7d5add3c067d7bee851d9408e0fa"),
    ("abel adding --no-cache",
     "ec39b67830c0c34d71b0b6bf1d1c424eb7caab9222eb401fdaef044cf2145e9b"),
    ("present basilica --json --no-cache",
     "44ecb431d1c3621d080fbba3322b16a1e367681bb2b691f1929fa0a7e1dac682"),
    ("present basilica --verify --no-cache",
     "872ceaa8e99e3500760420ab36160d98ccd8e7a3e3ecabc63aec323bb3876971"),
    ("nucleus basilica --json --no-cache",
     "1ff91253dbbeba94df22d2f7a445a01ae2a8294b7cc9fdba3dda9b80cc170c0d"),
    ("abel basilica --no-cache",
     "ec39b67830c0c34d71b0b6bf1d1c424eb7caab9222eb401fdaef044cf2145e9b"),
    ("present grigorchuk --json --no-cache",
     "5bb462a81b52938fabaa1dfcc1635bd0c9ef63c91bec8594b3a82a3f8108f306"),
    ("present grigorchuk --verify --no-cache",
     "3b02837558f37f7d77bba848c20589b1fe29e693fd609bac9f310ce5892064ed"),
    ("nucleus grigorchuk --json --no-cache",
     "444253b2c90c4853eaf6c6bd9291270788b374a38a24af20e88afbf520ed64da"),
    ("abel grigorchuk --no-cache",
     "57781692db196397a9e53d0f4ab94f530299e16acd32cc38f9179d34cd980adc"),
    ("present trivial:3 --json --no-cache",
     "85bdec950d945a38cf3c559b6223e9fef40912bc2309e8478c5f2d64f814b6fc"),
    ("present trivial:3 --verify --no-cache",
     "54753c62e9328bc32769142647ed17cd1c9da4d10026437451464289d5771473"),
    ("nucleus trivial:3 --json --no-cache",
     "4bc39510e5787b3bc9945ebbc60e9380a56f4cdd6c76f8f81430ad8393e1531d"),
    ("abel trivial:3 --no-cache",
     "82333ba8fb3d909f1d1d3bf611fc54a04bbf27007675801416f8580104cfbcf0"),
    ("present kneading:01 --json --no-cache",
     "975546e9b6e24db8ce91e270dec8d35b23fa1608b68c8bcc73ebc37ed8dd3fd9"),
    # level quotients and Schreier graphs, json and dot
    ("limit adding --level 0 --no-cache",
     "22b65f814a7a52d2d66c0bbb59e8368d693640e8053ba37403d1b48f58c44785"),
    ("limit adding --level 0 --no-cache --format dot",
     "98485207b0c47b45ce62d3f0123cb403c39c3a4ea7e7f9878eb6c18f240eed7e"),
    ("schreier adding --level 0",
     "8cb09962840492e1603438725bd851c4cdd058ecd0f1d528c0181e41e660b6d7"),
    ("schreier adding --level 0 --format dot",
     "b542beb27e15bbf0b9f664f86aca75f92ada00b91a688903ec1a7c1d76465461"),
    ("limit adding --level 1 --no-cache",
     "4c8fc84a7c181f2ff4ec787bc16bf0c287f4fbe74c5b49063f7f33e98642475b"),
    ("limit adding --level 1 --no-cache --format dot",
     "da7e8340081839c6c16877d314a4c1a95ce3841cf1059ad1b4877e5f194e7538"),
    ("schreier adding --level 1",
     "c0838c7d91881a1f3c98dfcc7173dfcccccc40d3aa442ef006f20f7e5e9a1580"),
    ("schreier adding --level 1 --format dot",
     "0dde0279305c46052c70a35b23204812fe3e284dffc3f06955a17ed99268fbf0"),
    ("limit adding --level 5 --no-cache",
     "00a3d4dc2ca8bf7a74f9343bc5ecb4ee1bac70f7383c5c1536786b0da594f175"),
    ("limit adding --level 5 --no-cache --format dot",
     "d317ba3ad55193ccc37e6789821087539994fab3070acdf82916d0e604323e7f"),
    ("schreier adding --level 5",
     "5963cd4c87651716444c7b56725f5b95c43f33c74d1b61c5e0530e64e6e5c193"),
    ("schreier adding --level 5 --format dot",
     "680c4debd0dc57e84a7abb4c3d725afd0a2d48b7c05f656e9514e21ca13205fc"),
    ("limit adding --level 9 --no-cache",
     "ca4850e6f786f560e361b6a647626f2b65f59e4ed0d0b36e6da52df42aeaf8b4"),
    ("limit adding --level 9 --no-cache --format dot",
     "dcce152166a5f8f5d8853435eb45bb44be09b1a096707891077a6e53ecde6d28"),
    ("schreier adding --level 9",
     "a56896e58d41e8c02cfc108cffbc6d459829c10ee85c59f7cc45d38341cd1865"),
    ("schreier adding --level 9 --format dot",
     "7d4c76a80423be2832e314cb4ae1de6330d5566b31b9e15266b5c910c858ad68"),
    ("limit basilica --level 0 --no-cache",
     "22b65f814a7a52d2d66c0bbb59e8368d693640e8053ba37403d1b48f58c44785"),
    ("limit basilica --level 0 --no-cache --format dot",
     "98485207b0c47b45ce62d3f0123cb403c39c3a4ea7e7f9878eb6c18f240eed7e"),
    ("schreier basilica --level 0",
     "8cb09962840492e1603438725bd851c4cdd058ecd0f1d528c0181e41e660b6d7"),
    ("schreier basilica --level 0 --format dot",
     "b542beb27e15bbf0b9f664f86aca75f92ada00b91a688903ec1a7c1d76465461"),
    ("limit basilica --level 1 --no-cache",
     "4c8fc84a7c181f2ff4ec787bc16bf0c287f4fbe74c5b49063f7f33e98642475b"),
    ("limit basilica --level 1 --no-cache --format dot",
     "da7e8340081839c6c16877d314a4c1a95ce3841cf1059ad1b4877e5f194e7538"),
    ("schreier basilica --level 1",
     "c0838c7d91881a1f3c98dfcc7173dfcccccc40d3aa442ef006f20f7e5e9a1580"),
    ("schreier basilica --level 1 --format dot",
     "0dde0279305c46052c70a35b23204812fe3e284dffc3f06955a17ed99268fbf0"),
    ("limit basilica --level 5 --no-cache",
     "9f72124204a9864b1d3216b4c4b05fd4ff59c03bbf28ff3d06d7a893587d5e44"),
    ("limit basilica --level 5 --no-cache --format dot",
     "649bfc3b783f4d44d8809f3fe4203ddbc045b0bbb5280dec4e74fe3aa63800ee"),
    ("schreier basilica --level 5",
     "a81894ac6820167f249c692dd72295cb844c6dae837e255a5a7885cd6e84e5ca"),
    ("schreier basilica --level 5 --format dot",
     "221e6963fae9ad7694de18bc8f7c7244b827f2d011201dd71681b80d07e17bdc"),
    ("limit basilica --level 9 --no-cache",
     "d84ed44d18f22852ebe83c696dc178f0d09a408fe8b21c9ba21a3ca382d4ee37"),
    ("limit basilica --level 9 --no-cache --format dot",
     "ed6b8943c4657e6ff95d55bdf6f7ad3880a4de7314bf5e7cfede3839bc07017d"),
    ("schreier basilica --level 9",
     "7c6f1dcf7bbbabf14bfb4698449f12a380843cc5a11a44a086dc4617e2ff1a2e"),
    ("schreier basilica --level 9 --format dot",
     "6d3d623ce60023f36bb9f3002fb0f6463e4a4e2e0df6650ae9b66691c8f6a746"),
    ("limit grigorchuk --level 0 --no-cache",
     "22b65f814a7a52d2d66c0bbb59e8368d693640e8053ba37403d1b48f58c44785"),
    ("limit grigorchuk --level 0 --no-cache --format dot",
     "98485207b0c47b45ce62d3f0123cb403c39c3a4ea7e7f9878eb6c18f240eed7e"),
    ("schreier grigorchuk --level 0",
     "8cb09962840492e1603438725bd851c4cdd058ecd0f1d528c0181e41e660b6d7"),
    ("schreier grigorchuk --level 0 --format dot",
     "b542beb27e15bbf0b9f664f86aca75f92ada00b91a688903ec1a7c1d76465461"),
    ("limit grigorchuk --level 1 --no-cache",
     "4c8fc84a7c181f2ff4ec787bc16bf0c287f4fbe74c5b49063f7f33e98642475b"),
    ("limit grigorchuk --level 1 --no-cache --format dot",
     "da7e8340081839c6c16877d314a4c1a95ce3841cf1059ad1b4877e5f194e7538"),
    ("schreier grigorchuk --level 1",
     "c0838c7d91881a1f3c98dfcc7173dfcccccc40d3aa442ef006f20f7e5e9a1580"),
    ("schreier grigorchuk --level 1 --format dot",
     "0dde0279305c46052c70a35b23204812fe3e284dffc3f06955a17ed99268fbf0"),
    ("limit grigorchuk --level 5 --no-cache",
     "bccebc95db44bae7799c94a312d42da0b9987fbde56904595a6139387676d56e"),
    ("limit grigorchuk --level 5 --no-cache --format dot",
     "570d4f4a5fbbb193f9285c9f51776870aec785dcc067d2cc650c9833a410db56"),
    ("schreier grigorchuk --level 5",
     "b678a8bd72dae41ccf5b90c9cc94c88a2a232736e0a4489c8914ff4de20664b9"),
    ("schreier grigorchuk --level 5 --format dot",
     "6a402344f484ac8db108c3510e2b87ee185acc63705fa735af035990894e3b02"),
    ("limit grigorchuk --level 9 --no-cache",
     "c8c51f03d003bce14ade8265fe5ef0007b987a05c055dcca8aded560e384c56c"),
    ("limit grigorchuk --level 9 --no-cache --format dot",
     "55a8197ce8cbf53ae0ebed9d949c693a06a71e395f13dd316533ed95fc9995bc"),
    ("schreier grigorchuk --level 9",
     "78761abba8aa147787ac3342af22924743b975307df1bdb8ee87c4edba0834ba"),
    ("schreier grigorchuk --level 9 --format dot",
     "126aa58e2056ed8406ebd0acd4e7573eb49e4438e76ab11070816baa49c8da70"),
    ("limit kneading:01 --level 0 --no-cache",
     "22b65f814a7a52d2d66c0bbb59e8368d693640e8053ba37403d1b48f58c44785"),
    ("limit kneading:01 --level 0 --no-cache --format dot",
     "98485207b0c47b45ce62d3f0123cb403c39c3a4ea7e7f9878eb6c18f240eed7e"),
    ("schreier kneading:01 --level 0",
     "8cb09962840492e1603438725bd851c4cdd058ecd0f1d528c0181e41e660b6d7"),
    ("schreier kneading:01 --level 0 --format dot",
     "b542beb27e15bbf0b9f664f86aca75f92ada00b91a688903ec1a7c1d76465461"),
    ("limit kneading:01 --level 1 --no-cache",
     "4c8fc84a7c181f2ff4ec787bc16bf0c287f4fbe74c5b49063f7f33e98642475b"),
    ("limit kneading:01 --level 1 --no-cache --format dot",
     "da7e8340081839c6c16877d314a4c1a95ce3841cf1059ad1b4877e5f194e7538"),
    ("schreier kneading:01 --level 1",
     "c0838c7d91881a1f3c98dfcc7173dfcccccc40d3aa442ef006f20f7e5e9a1580"),
    ("schreier kneading:01 --level 1 --format dot",
     "0dde0279305c46052c70a35b23204812fe3e284dffc3f06955a17ed99268fbf0"),
    ("limit kneading:01 --level 5 --no-cache",
     "26193131f98e1a675afbcbe8e98109fcbd7f08f1cd15bf10039670df2e9a2dca"),
    ("limit kneading:01 --level 5 --no-cache --format dot",
     "a13534904f8ec32d1b95585809c4a34a2639586d44be4a5ce07c59c1a38c4f80"),
    ("schreier kneading:01 --level 5",
     "93070d1336123da92a30b8efd233087582c78d5b3f66ffc4a8ef2417a978ccbe"),
    ("schreier kneading:01 --level 5 --format dot",
     "31967a93489e199785c65ebe654c1a8dd7da527785e2446c6fd00110bd647a1c"),
    ("limit kneading:01 --level 9 --no-cache",
     "0467c801ea6eb18e822bb44c4f944761fc902460efd993bf1c0beeb9cd69f218"),
    ("limit kneading:01 --level 9 --no-cache --format dot",
     "0f3d2402ef5f42fdcbc02b97b9f2b11d7a749126eff1141237a34d9080c66980"),
    ("schreier kneading:01 --level 9",
     "fe080d73e7e80554942365dc506ec0f8fa967ff48baec5864319dfca87ccbb0a"),
    ("schreier kneading:01 --level 9 --format dot",
     "75aa9124281c2e7257b8cf2f7778494e78ef430fed78c1dfff704cc12bb3cae1"),
    # the levels the analysis benchmark runs
    ("limit adding --level 12 --no-cache",
     "e8264205217ebb86fd1857748f25a0baa597211c7ddff2047f98518332a59a7d"),
    ("limit grigorchuk --level 12 --no-cache",
     "b53b0ebc41ce3a380b9806523d03d8be357f808d7af3e45ec3f65cb44b460000"),
    ("schreier adding --level 12",
     "d441a0ca0d243a8a35c02aa12e19933173777c026cd1ee76d0ea093535cff1df"),
    ("schreier grigorchuk --level 12",
     "8b173a6e17806c2feec42bb4c8cf5ba3b9ce9d4c34cb6f2b3a9b3c45dd71d922"),
    ("schreier basilica --level 12",
     "75844a613fe77d389f92a534b50f5a1c6b88339cddc07ee5ee9006bec66de0d6"),
    ("schreier grigorchuk --level 14",
     "c5ec57cae43f426b1f1828d268b202e914be3a5060e055f4744c9200f69c0953"),
    ("limit basilica --level 12 --no-cache --format dot",
     "42f3e76ad915d4b4ed20b3a3d87d528d999730c66e1eff458613540c87ff81b7"),
    ("schreier basilica --level 12 --format dot",
     "20deceb6ed0205c7953d4b293f43aa488ba3d21b033f0fb70a7c0bf655af2d1e"),
    # canonical forms: split elements merged back into their nucleus reps,
    # and a family whose sections differ kept as it is
    ('vg grigorchuk canon {"domain":["0","1"],"entries":["a","c"],"range":["0","1"]}',
     "5b58db17063332e8752e8a8a602ccaf0f1db2010a639d1b4bee728c8c6eb0402"),
    ('vg adding canon {"domain":["0","10","11"],"entries":["e","e","a"],"range":["1","01","00"]}',
     "4d68f88cee26b5eb51932b5d16e4a5ee984a973a425c776ce74a2122e76bc60b"),
    ('vg basilica canon {"domain":["0","1"],"entries":["e","b"],"range":["1","0"]}',
     "4d68f88cee26b5eb51932b5d16e4a5ee984a973a425c776ce74a2122e76bc60b"),
    ('vg basilica canon {"domain":["0","1"],"entries":["e","a"],"range":["0","1"]}',
     "5b58db17063332e8752e8a8a602ccaf0f1db2010a639d1b4bee728c8c6eb0402"),
    ('vg kneading:01 canon {"domain":["0","1"],"entries":["a","b"],"range":["0","1"]}',
     "5053bcc9dbdac6939df1203b418fd3069c842d8b032321c5e6ab324b6063cb35"),
    ('vg trivial:2 canon {"domain":["00","01","10","11"],"entries":["e","e","e","e"],'
     '"range":["00","01","10","11"]}',
     "401e2a8f333f0a2e8dba2d6da4a8caa26e31929e6e1c6a87cba98435c0bc2637"),
    ('vg grigorchuk canon {"domain":["0","1"],"entries":["a","a"],"range":["0","1"]}',
     "46a8e16ec65945a763c64224c4a6b7206fd9ac7d64e9c0d1acd1defb7fc5e541"),
    # a nucleus of 133 states, whose two-letter candidates take the machine
    # past the default state budget: a split product of 26 letters merges
    # back, and an entry written as a long word is rewritten to its
    # nucleus representative, as on a small nucleus
    ('vg kneading:0000000000 canon {"domain":["0","1"],'
     '"entries":["fcfdFCFcfDFCikaiAKIkaIAK","Cl"],"range":["1","0"]}',
     "2011e39bd4d07f5b0dc1690a9ca2443101443317558f33459f37c78887e7c068"),
    ('vg kneading:0000000000 canon {"domain":["e"],"entries":["acbcBCbCB"],"range":["e"]}',
     "4d68f88cee26b5eb51932b5d16e4a5ee984a973a425c776ce74a2122e76bc60b"),
]


@pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_output_is_byte_identical(capsys, command, digest):
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_ternary_odometer_presentation_is_byte_identical(capsys, tmp_path):
    path = tmp_path / "odometer3.txt"
    path.write_text("alphabet: 3\na = (0 1 2)(e, e, a)\n")
    code = main(["present", str(path), "--json", "--no-cache"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "39d1e3b918eaa9570e3001128203d8af7856ea5e8a1eacde164c4505bb2be103")


# groups whose level quotients fuse vertex classes; "{group}" stands for the
# group file under tests/groups
GROUPS = Path(__file__).parent / "groups"
FUSED_GOLDEN = [
    ("flip.txt", "limit {group} --level 3",
     "0e317e081219ffe8a2fdff7004b97735ed8869bb03f731925ad334f61caaca6d"),
    ("flip.txt", "limit {group} --level 3 --format dot",
     "7704cc31c4b59996a933fe889d695c653aa340e30647a210f47ee6f2f2f957cd"),
    ("flip.txt", "limit {group} --level 9",
     "0a47baf2ca958d0e059d984685d8356026d9501e63ec374eeef9fd4918baf2b9"),
    ("flip.txt", "limit {group} --level 9 --format dot",
     "caf064d026ded95a29ac07640d428396123cea13f559c5997801a7cbb8e60c9f"),
    ("flip.txt", "schreier {group} --level 6",
     "42788175032de51d2aef0d27d974016fd6e99244d6ab0a5cc938c548859548c3"),
    ("flip.txt", "schreier {group} --level 6 --format dot",
     "c4bfe76323042bb01b2768199c4152cf4eddf1b991344adf86da474a6f0d7f73"),
    ("rotation3.txt", "limit {group} --level 3",
     "156c81daa9213248bfaf225ee99937530e272e01380633f9973c8828d98b961e"),
    ("rotation3.txt", "limit {group} --level 3 --format dot",
     "a81c81ba324f5f84eaa7597505b88592682bee3d022e24a94c5aa8c691ec7636"),
    ("rotation3.txt", "limit {group} --level 9",
     "4299d8d66b1135c8adf2fa000d5564b7461509092301c0b71a892f2255de44b4"),
    ("rotation3.txt", "limit {group} --level 9 --format dot",
     "cf7903d99e7285438da682033b4070bdc1bd440e700a764f90ac26581a1b9fd0"),
    ("rotation3.txt", "schreier {group} --level 6",
     "316d8747dca02038ec5c3d0731b7b58ce4bb8a4fb042edb517a5e9cf7ecbb2c4"),
    ("rotation3.txt", "schreier {group} --level 6 --format dot",
     "86e032546fa29d9765ca5f5c911a255f1e195d2ce7806167aa5efc832f970167"),
]


@pytest.mark.parametrize("name,command,digest", FUSED_GOLDEN,
                         ids=[command.format(group=name) for name, command, _ in FUSED_GOLDEN])
def test_fused_class_output_is_byte_identical(capsys, name, command, digest):
    code = main(command.format(group=GROUPS / name).split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
