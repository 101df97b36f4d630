"""Canonical reports are pinned byte for byte.

The digests below are sha256 sums of the ``--json`` reports as written by
the code before the sparse elimination core replaced the dense one.  Equal
subspaces have identical canonical bases, so a change to how the linear
algebra is computed must leave these bytes alone.  A change that means to
alter a report (a new key, a new version string) records the new digest
here and says why.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from diffoplab.cli import main

PINNED = {
    "run-scenarios":
        "93c3a32408362112e71849d6513a32ae2d722f4750e1e380d31ab8e7dcb04bf6",
    "ce trunc_poly:2+matrix:2 --field q":
        "ba688053cfb01ee0eb905e4a0c966fed707f22ce559c36a6cb2ed42e6a154ac8",
    "ce trunc_poly:2+matrix:2 --field p:32003":
        "3d7152eeec1fb21b5083fa8adbc534e1a6485ebd8e797c7737e7197869c64dfe",
    "graded-ce grassmann:2":
        "ab00f3090a2ee005bce1324b73cb31e0ff34359d3b680874e745d3065a73a4b9",
    # recorded before the operator builders shared their HomSpace, reduced
    # the jet levels and tabulated the degree-2 products
    "compare-defs matrix:2 --module free:2 --order 1":
        "7057ad5e6c88e97b2063cdeab70393e7abf0b5b4dce7c96c29d39e851166229d",
    "universal matrix:2":
        "d05c753c1537a4b5f1db56543fbcbdf2bd7a8dff47d24245abf0d98a04ed2044",
    "jets trunc_poly:5 --order 2":
        "b6f191e09cc37694cbc8875853442c41415138b9546d4a2c857c753225e32555",
    # recorded while Matrix still stored its rows dense
    "compare-defs matrix:2 --module free:2 --order 1 --field p:32003":
        "0462dd7dbd6d592ef0da4ffb3b8f0c871cd3ea1304dbff6e38e7891cf059dc72",
    "cartan matrix:2":
        "164d8ab55e39996191f20565be94bc6a24e6204fe758c09e7ed10627c6bc872a",
    "jets matrix:2 --two-sided":
        "fbff31919d632ab7d38798658771c42078b83a3575fc244f82d69db5ea0468f9",
    # recorded before closure, image_span and preimage stopped at the whole
    # space; both filtrations are all of Hom_K(P, Q) from order 0 on
    "two-sided quaternion --order 2":
        "b4e39e5988048a64fd94a04e57589a464444aa81a22f4ded35a88b12ee97675f",
    "lunts matrix:2 --order 2 --side right --field p:32003":
        "bbe7961c8039935c2dad711136d16192bbf5b77808ca4521ff9c5ddc08e3a27f",
    # recorded while subspaces still stored their bases dense, before they
    # were loaded into an echelon as monic pivot rows over GF(p); these
    # reports carry no field name, and each matches its run over q
    "universal matrix:2 --field p:32003":
        "d05c753c1537a4b5f1db56543fbcbdf2bd7a8dff47d24245abf0d98a04ed2044",
    "cartan matrix:2 --field p:32003":
        "164d8ab55e39996191f20565be94bc6a24e6204fe758c09e7ed10627c6bc872a",
    "jets matrix:2 --two-sided --field p:32003":
        "fbff31919d632ab7d38798658771c42078b83a3575fc244f82d69db5ea0468f9",
    "graded-ce grassmann:2 --field p:32003":
        "ab00f3090a2ee005bce1324b73cb31e0ff34359d3b680874e745d3065a73a4b9",
    # recorded at f295b7e, while relations_hold still checked the Cartan
    # identities one dual basis element and basis pair at a time
    "cartan matrix:2 --side left":
        "bcc879400938441806b16e73788f11fdc8a455ce48e0484fc9228a9b99ae18c6",
    "cartan trunc_poly:3":
        "d97000fc3ac19cc55ed5d184d6b4649ae8a8da600a68b788f6f7510585ab3307",
    "cartan quaternion --side left":
        "86f61e299b915e98ef03bd7b221508b7786aecf07f6a21000979e074825df968",
    "cartan matrix:3":
        "37bea9fb0fcc851d6e6d26150387caefdeb4ce5fe047a8bd441615befeaecea4",
    # recorded at 52e8006, while each graded split still stacked unit
    # selector rows under its system (or intersected with a parity subspace)
    "derivations grassmann:3 --graded":
        "a1786c48d768c2101058e5d263a356219f8e92aa1e18a996c0a9abaa2f23c336",
    "derivations grassmann:3 --graded --field p:32003":
        "dd271a30c2298c4739080585c2dd5682c722267d1b7109cc38aa7cd3ab7ea76d",
    "diff-space grassmann:2 --definition graded --order 2":
        "789150742ac65ba583cc4005bba73d71ff8b400515782c725acc60ee0dd7531d",
    "compare-defs grassmann:2 --order 2":
        "8d2415ce5f0873cfd2e13b07f545faaefde9d17fee3f4ef29f5cc06c134c6359",
    "graded-ce grassmann:3 --max-degree 1":
        "379cd038ced4d816997f7df5821589cc77a14083b4c9839966b64b5524caef26",
    # recorded at 3dd0992, while the form spaces were still solved over
    # every argument tuple with linearity imposed in every slot
    "ce matrix:3":
        "82ca2ba6bd2664cc480b713fba6f64f5b75db733d63c89b3214d195318b59e74",
    "ce square_zero:3 --field p:32003":
        "da98ba0ecb14b29491f47ae7979db3eb79b2bee8fc832ec7905958a4562a60d3",
    "graded-ce grassmann:3":
        "ceb196c77f2b9ff80abdedfb861681d1d047e1ffd4f719d4de3e20ebea0e010d",
    # recorded at 05ebb51, while Ω² was still the quotient of Ω¹ ⊗ Ω¹ by
    # the middle-action relations, one relation per (a, ω, η)
    "universal matrix:3 --field q":
        "ace69e75a293a97730dc8581e7302bc0d39164d625a09ee533cd5c42ab2f9fa3",
    "universal matrix:3 --field p:32003":
        "ace69e75a293a97730dc8581e7302bc0d39164d625a09ee533cd5c42ab2f9fa3",
    "universal quaternion --field q":
        "5f9d38bd830150c2c1e41c042de01e47e9bf3a7ebbb4747d29ee69974655586b",
    "universal quaternion --field p:32003":
        "5f9d38bd830150c2c1e41c042de01e47e9bf3a7ebbb4747d29ee69974655586b",
    "universal trunc_poly:2+matrix:2 --field q":
        "8ccdaebfbcdce7be863d382ad6af78a56a02e363b8fcd7435112f2eefa80e69e",
    "universal trunc_poly:2+matrix:2 --field p:32003":
        "1eb11a5238018407131336b600da45f6d904f0cfe33eba829a865ec9c089f026",
    # recorded at 117172a, while the ungraded complex restricted an ambient
    # coboundary built over every argument tuple
    "ce quaternion":
        "301fa50eec5b9f35f86e8d5a49403aa3da07a4d3d5d03bb9566d7b1a7bdfacb0",
    "ce matrix:3 --field p:32003":
        "3c4dccda4223692b225660a56e3018e5f30de3fe489aa5e14c851404037abaae",
    "ce trunc_poly:2+trunc_poly:3 --field p:32003":
        "43d298af32c48376f84a75437fc59d638e695efb3f0493be9a4e2d3685280b1a",
    "ce matrix:2 --max-degree 2":
        "91c31e1649cc36728cb772c55b1549d7d477c618458adca99e1517b429358ef8",
    "graded-ce trunc_poly:2+grassmann:1":
        "d926d7fe03ac7d96b4e6fbe7ef5ae5e2cd5ecc847ceb446adb5117fb27ac1199",
    # recorded at 23e7d85, while closure still reduced dense images, every
    # HomSpace family was compared by its Kronecker matrix and each relation
    # solved both containments
    "compare-defs matrix:4 --order 1":
        "0d582b2267cecda51897aa0dabcf244daddad37f653a8bf3931f7f6a0ecc74cd",
    "jets matrix:3 --two-sided":
        "8f972b48d2f70e529758431277e8c2d3215473e7cdb336f53802c0efb10c1d48",
    "compare-defs trunc_poly:5 --order 2 --field p:32003":
        "7c78e887169dbbe1b2b1ee58cac71414341c7765f077a3c3dc8ea68728ed8e89",
    "cartan quaternion --field p:32003":
        "4d930cbe5e8bb8ca226dcbf87ea004ad92574bf5b34ee8739d043072afb0b4eb",
}


@pytest.mark.parametrize("command", sorted(PINNED))
def test_report_bytes_are_pinned(command, tmp_path):
    path = tmp_path / "report.json"
    with redirect_stdout(io.StringIO()):
        assert main(command.split() + ["--json", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED[command]
