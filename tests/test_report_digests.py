"""Exact reports keep their bytes: the stdout sha256 and exit code of each
exact-arithmetic command line, compared with a table computed from an earlier
commit of the package.

The table covers the paper suite's exact commands, the interval scans at the
five index pairs of the benchmark, and a few more commands: the GPI margin
at both signs of x and at |x| = 1, ``params show`` on the covered set's
boundary, ``expand s``, the MRI at a zero of S and a failing scan.  Float reports
(``oracle compare --real``, ``check gpi-real``, ``check mri --y2``) are left
out: their last digits may move with the platform's libm.
"""

import hashlib

from gpiverify.cli import main

#: argv -> (exit code, sha256 of stdout)
DIGESTS = {
    "sos verify --all":
        (0, "c66dd9ba3e2c60780da893e1ef4d14d0e89f0e04988682e3b2d50d351031991a"),
    "expand g --compare-appendix":
        (0, "b26429f2eb051da45dc28460564a7e82624ae185677b7069e2e12a8660dd3c1c"),
    "expand h --m2 1 --compare-bundled":
        (0, "c89a6b46f676055cf8ebfb5a1cce69ef070d171e5ce4e189d05174915c53fcc7"),
    "expand h --m2 2 --compare-bundled":
        (0, "239363b776fea7b50001f355cf62713986b66f06b3578fbd3d059b95f3e51678"),
    "expand h --m2 3 --compare-bundled":
        (0, "f3c6b8625e563782fcd309c5b01320206c7e115b80dcde5fbf2847f2cdaa427e"),
    "expand h --m2 4 --compare-bundled":
        (0, "f3f2d06581209747dbc2936e3c318d29313bb905cd41816606b3734555b5fa9f"),
    "expand h --m2 5 --compare-bundled":
        (0, "d5e02d4e06eab6f1db05595999dd61f702e42af639422133ec0475d54e8a69bc"),
    "expand h --m2 6 --compare-bundled":
        (0, "c1e4feafc07e44c825a69df7d134147efd8afbf4d730c85c78a37be5d367db29"),
    "expand h --m2 7 --compare-bundled":
        (0, "fb5bfeb4790813bd5e9a0abb1b6c81b11d63c5281b190fb11a3e442527fe64c5"),
    "oracle compare":
        (0, "674380498675d5a1d6b4125ea9fde199b942e3fea75d667e3210c79054091abe"),
    "check gpi --m2 1 --m3 1 --a=-1 --x 1/2":
        (0, "c872b246aff67fc1e63685421c5d1e416dbe3f834fca5a0722bf6cd8f03840ad"),
    "check gpi --m2 2 --m3 5 --a 5/2 --x=-3/10":
        (0, "cf450a0ac4ededc8f7c0502024181be34e0bcef028ea3793af90e48cf39495a8"),
    "check gpi --m2 4 --m3 1 --a 1/3 --x 9/10":
        (0, "5edccd284a35d01d57fa143d5c893cbde3c331dbda67da070dcfe1c6f01698bc"),
    "check gpi --m2 3 --m3 3 --a 0 --x 1":
        (0, "722bfac93411ed6d8633f6dabd0a9b48128334a7d1d804dd72aa87980addb9b9"),
    "check gpi --m2 1 --m3 1 --a 1 --x -1":
        (0, "c399b15b4d0a716f9547edc3a19fe56577894acd0a4f79ffd072885b1e4d19d1"),
    "check mri --m2 2 --m3 2 --find-violation":
        (0, "1ba2f3f330ad2c6860c3e94f9b6529aafa5f403ad237b5d0e0a9cd39f3162700"),
    "check mri --m2 2 --m3 3 --x 1/4":
        (0, "3967f11133f6a299f68b4e1620cdcf277bb88988dac8a8b4bdb1a70e26f67b0d"),
    "check hfri --m2 1 --m3 5 --z 0.5":
        (0, "b84b04b5a88e6f3269976e8239c1a62a4dffcf7eb02d0c571ce8e88621447692"),
    "scan hfri --m2 2 --m3 3 --grid 101":
        (0, "82e457db0107490944964c21a861ddf75e4eb3a1a6f7ebc0a102a03341f1ecc8"),
    "scan g-negative --m2 8 --m3 8 --grid 101":
        (0, "92810ac6d036e3606f8b26d9d13b5023e85751926cf514d86983fa0043cb053e"),
    "scan h-deriv --m2 8 --m3 8 --grid 101":
        (0, "aeecba4631fba4dcaeaba31874398fa723054a9034cd20714c8b78ebcfee0cd6"),
    "scan h-deriv-reduced --m2 8 --m3 8 --grid 101":
        (0, "0a18a00af26645987dd4a1d4822b5b171840a376e3825425d2eef6d85f94d590"),
    "scan h-half --m2 8 --m3 8 --grid 101":
        (0, "ce645ef0008a0faffc7b99175b4e8f7f219d4c8f13c5beb95578139914852754"),
    "scan h-seventh --m2 8 --m3 8 --grid 101":
        (0, "6e9834ad65e70f454838128870324380bbc2e91c3bcc8c18bf6d7a6161bbb269"),
    "scan g-negative --m2 30 --m3 30 --grid 1001 --jobs 2":
        (0, "f703e244d7094275a6c44e301440d5e2d9173e063a5bdcbe9c07ee763526b149"),
    "scan h-deriv --m2 30 --m3 30 --grid 1001 --jobs 2":
        (0, "dbc02d2342628684c3fe33ac3b9c1e2aa091c5c1fec15d5adac0a11101fcbe95"),
    "scan h-deriv-reduced --m2 30 --m3 30 --grid 1001 --jobs 2":
        (0, "a7e2b728ca62905be19cff0ab94b78a571dc98ce99b16d56ee33555f9334cc62"),
    "scan g-negative --m2 30 --m3 31 --grid 1001 --jobs 2":
        (0, "7c9837e7df289c1826b867413741e4d7bc8be706324626ff4cdc9c5801631211"),
    "scan h-deriv --m2 30 --m3 31 --grid 1001 --jobs 2":
        (0, "7b2bfb80472ea1586a44803ce167cdd423d56188650ed1e35b982a9735936222"),
    "scan h-deriv-reduced --m2 30 --m3 31 --grid 1001 --jobs 2":
        (0, "6a3c1d2f1897b748a34276c14632132bbab7ac88b220dfd99c20f0ba7c896560"),
    "scan g-negative --m2 30 --m3 32 --grid 1001 --jobs 2":
        (0, "c1308a481e3c70d386616d8ccb68de94c2f9919e080f5a9f7fb536513ba2636f"),
    "scan h-deriv --m2 30 --m3 32 --grid 1001 --jobs 2":
        (0, "53c9355a4768640507c2e8a89ec0f381e36f0df3d1dc00da7e7b2872bbc66706"),
    "scan h-deriv-reduced --m2 30 --m3 32 --grid 1001 --jobs 2":
        (0, "8e81541c0e0197ca0a9a7b2070ff5e732b3935bc9b0b889072629734dee83f1e"),
    "scan g-negative --m2 30 --m3 33 --grid 1001 --jobs 2":
        (0, "7970cedb748f94d42b264347f0892e2df3de45d98fe6d3517439723767dc16c2"),
    "scan h-deriv --m2 30 --m3 33 --grid 1001 --jobs 2":
        (0, "9a4b0fc033dc8f9b841c10d9e16f81244991007b2e4e281b9c61efeaa41f670a"),
    "scan h-deriv-reduced --m2 30 --m3 33 --grid 1001 --jobs 2":
        (0, "f4da12cee131f7a03a3a861584f0224818fe178735df3f20b57a24f26291c5a1"),
    "scan g-negative --m2 30 --m3 34 --grid 1001 --jobs 2":
        (0, "33f776e6773db4e8b1ac59ef8ca83a1837b4a13d7566bc5a2f324e2ed0815be5"),
    "scan h-deriv --m2 30 --m3 34 --grid 1001 --jobs 2":
        (0, "31fe6525f6c1ded2bbc7372d3a27ed58c73244529a9e0c6a06af1d37d56c867a"),
    "scan h-deriv-reduced --m2 30 --m3 34 --grid 1001 --jobs 2":
        (0, "a1c6b3b45a3ff8a58ef6068bdb98f9f95ca7dd8fdf28d909f5023bdc8bfb6097"),
    "params show --m2 2 --m3 3":
        (0, "58ce8d8e7f4099abd11a142b7804758c41b4b37b45c4dc693e444d7aa345470b"),
    "params show --m2 1 --m3 4":
        (0, "2c75f33fe0c05d61be48035969d0413a7aad26c8cd7186e55b336cba8a8d9ec8"),
    "params show --m2 1 --m3 5":
        (0, "56561793a177fb71f2a0ec8b29525719dc3dfc9bc30e706fb81fda81be0f1f34"),
    "params show --m2 2 --m3 2":
        (0, "d6311ce8f97360b2f88b5f908aabfd56b43494ad954d78c9c06475dcfbaf857b"),
    "params show --m2 3 --m3 3":
        (0, "2636538f2ffb7ace3fada9ab8948554976e3ed3fbfa4245a67340be72f1f95eb"),
    "expand s --m2 2 --m3 3":
        (0, "64b5ef5d68c089617948600a2c5a41590c7df12efa4b5a27afff6c8a02df9117"),
    "expand s --m2 1 --m3 5":
        (0, "4634cbed660ffdc9a79cbf5149303bbcd76cde182cca7b9ea96b0abce8916708"),
    "check mri --m2 1 --m3 2 --cov 3 --var2 4 --var3 3":
        (0, "52ed644bf92500ebb9997b592e12e159db703a41a778b69deeb2980f94271498"),
    "scan h-deriv --m2 2 --m3 1 --grid 1001":
        (1, "5dc38e401662b766e24bbb2d744c2e13f875779df0350e322f7b22fc18f71e59"),
}


def test_exact_reports_are_byte_identical(capsys):
    changed = []
    for argv, expected in DIGESTS.items():
        code = main(argv.split())
        out = capsys.readouterr().out.encode("utf-8")
        if (code, hashlib.sha256(out).hexdigest()) != expected:
            changed.append(argv)
    assert changed == [], "reports changed for: " + "; ".join(changed)
