"""Byte-identity goldens for the command-line reports.

Each case is written to a file and run through `analyze`, `verdict` and
(for some) `validate` or `verdict --keep`, in both output formats.  The
sha256 of every stdout was recorded from an earlier release of the
engine; a refactor that changes any byte of any report fails here.

To re-derive the digests after an intended output change, run this file
as a script: `PYTHONPATH=src python tests/test_goldens.py`.
"""

import dataclasses
import hashlib
import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from sepkit.cli import run_cli
from sepkit.dualgraph import (
    NONDEGENERATE,
    SADDLE_NODE,
    SN_WEAK_ON_CURVE,
    Component,
    Crossing,
    DualGraph,
    GorensteinData,
    SmoothSingularity,
    serialize_graph,
)
from sepkit.exactfield import NumberField
from sepkit.fixtures import (
    make_camacho_cycle,
    make_p2_cycle,
    make_quadratic_chain,
    make_random_graph,
    make_random_tree,
    make_torsion4,
)


def _with_gorenstein(g, k, a_values):
    data = GorensteinData(
        k, tuple((c.id, a) for c, a in zip(g.components, a_values))
    )
    return dataclasses.replace(g, gorenstein=data)


QQ = NumberField((Fraction(0),))


def _pad(cid, cs, kind=NONDEGENERATE):
    return SmoothSingularity(f"{cid}:pad", kind, QQ.from_rational(cs), True)


def _trivial_cycle(weak_on_e1=False):
    """3-cycle with trivial holonomy: the count-bound branch of rule 2."""
    extra = (_pad("E1w", -1, SN_WEAK_ON_CURVE),) if weak_on_e1 else ()
    comps = (
        Component("E1", -4 if weak_on_e1 else -3, 0, (_pad("E1", -1),) + extra),
        Component("E2", -3, 0, (_pad("E2", -1),)),
        Component("E3", -3, 0, (_pad("E3", -1),)),
    )
    one = QQ.from_rational(-1)
    crossings = tuple(
        Crossing(a, b, NONDEGENERATE, cs_tail=one)
        for a, b in (("E1", "E2"), ("E2", "E3"), ("E1", "E3"))
    )
    return DualGraph(QQ, comps, crossings)


def _strong_attachment():
    """E1-E2-E3 whose E2-E3 crossing is a saddle-node, weak side E3."""
    comps = (
        Component("E1", -2, 0, (_pad("E1", -1),)),
        Component("E2", -3, 0, (_pad("E2", -2),)),
        Component("E3", -2, 0, (_pad("E3", -1),)),
    )
    crossings = (
        Crossing("E1", "E2", NONDEGENERATE, cs_tail=QQ.from_rational(-1)),
        Crossing("E2", "E3", SADDLE_NODE, weak="E3", cs_weak=QQ.from_rational(-1)),
    )
    return DualGraph(QQ, comps, crossings)


def _cases():
    camacho = make_camacho_cycle()[0]
    cases = {
        "camacho": camacho,
        "camacho_open": dataclasses.replace(camacho, closed_world=False),
        "camacho_gorenstein_222": _with_gorenstein(camacho, 2, (2, 2, 2)),
        "camacho_gorenstein_122": _with_gorenstein(camacho, 2, (1, 2, 2)),
        "camacho_unbalanced": dataclasses.replace(camacho, components=(
            dataclasses.replace(camacho.components[0], self_intersection=-5),
        ) + camacho.components[1:]),
        "p2_cycle_2": make_p2_cycle(2),
        "p2_cycle_3": make_p2_cycle(3),
        "torsion4": make_torsion4(),
        "torsion4_gorenstein_444": _with_gorenstein(make_torsion4(), 4, (4, 4, 4)),
        "trivial_cycle": _trivial_cycle(),
        "trivial_cycle_weak": _trivial_cycle(weak_on_e1=True),
        "strong_attachment": _strong_attachment(),
    }
    for seed in range(3):
        cases[f"quadratic_chain_{seed}"] = make_quadratic_chain(seed, length=4)
        cases[f"random_tree_{seed}"] = make_random_tree(seed, n=12)
        cases[f"random_graph_{seed}"] = make_random_graph(seed, 12, 2)
        cases[f"random_graph_sn_{seed}"] = make_random_graph(seed, 10, 2, 0.3)
    return cases


COMMANDS = [
    ("analyze", "json"), ("analyze", "text"),
    ("verdict", "json"), ("verdict", "text"),
]
EXTRA = {
    "camacho_unbalanced": [("validate", "text"), ("validate", "json")],
    "random_tree_1": [("validate", "text")],
    "quadratic_chain_0": [("verdict", "json", "E1,E2"), ("verdict", "text", "E1,E2")],
    "random_tree_2": [("verdict", "text", "E1,E2,E3")],
    "torsion4": [("verdict", "text", "E1,E2,E3")],
    "strong_attachment": [("verdict", "json", "E1,E2"), ("verdict", "text", "E1,E2"),
                          ("verdict", "text", "E2,E3")],
}


def _stdout(path: Path, command: str, fmt: str, keep=None) -> bytes:
    argv = [command, "--input", str(path), "--format", fmt]
    if keep is not None:
        argv += ["--keep", keep]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        run_cli(argv)
    return out.getvalue().encode("utf-8")


def digests(workdir: Path) -> dict[str, str]:
    out = {}
    for name, graph in _cases().items():
        path = workdir / f"{name}.json"
        path.write_text(serialize_graph(graph) + "\n", encoding="utf-8")
        for spec in COMMANDS + EXTRA.get(name, []):
            label = " ".join((name,) + spec)
            out[label] = hashlib.sha256(_stdout(path, *spec)).hexdigest()
    return out


GOLDEN = {
    'camacho analyze json':
        '92676444dc71565199075f7489e269724a30165d9f5c35910d11896798d36044',
    'camacho analyze text':
        'c3dd6d29134670733f472dbf85b746b386569061a37303e2121337a4fdb660ec',
    'camacho verdict json':
        'ea1ca71faf6e6b49fd1ece2e836d4de84fe1bb7be54a72487a5c0675a462303f',
    'camacho verdict text':
        '4850e1eeaec9afea25e7cdb484ebdf0c03110d96f7539bcfae39b642b7d2385e',
    'camacho_open analyze json':
        '6525ba4edb71dc67b958fa9a472e26bf9bf3c4aa5b4809db05c4a39edaf65e03',
    'camacho_open analyze text':
        'ddd2c585ae07e461ca5d9ef9cb499502cf4faed2a7d5412d8ebaf5aa254c43ce',
    'camacho_open verdict json':
        '42e178abd2c52a945ecfe0281a84307bfbe0a67adaeb500aa3608d2e6cfe10d1',
    'camacho_open verdict text':
        'b9c03fd4adb7cb7245d38b7ec58f8aa09dd828a9a4d455cfd3c8a1650148517a',
    'camacho_gorenstein_222 analyze json':
        'e3efb04f35b76ee25f056ac5ac9034d9727cca907e4c6b7402ca9e9f8e64a098',
    'camacho_gorenstein_222 analyze text':
        '73553064d108e4aa9bd9dbce2a83ca9c900b6b33d94ad770e8e46bfac5239d95',
    'camacho_gorenstein_222 verdict json':
        '7404f771c1d6660b901aa4ecd33a75468fac6d8731d37ebb86545f5f48ef3155',
    'camacho_gorenstein_222 verdict text':
        '0d7bbb92193058a3a34f672de846ecc7aeac7f78267a2d54384f159264569bd3',
    'camacho_gorenstein_122 analyze json':
        '26e212124fc645802bd96392176af7ba32a70a0d0993563335f75a90ed3589d7',
    'camacho_gorenstein_122 analyze text':
        'eb4a07c63473129d26fc05e4b330768ce9703939e9b8bb444d6feb8ade13dea1',
    'camacho_gorenstein_122 verdict json':
        '422fd076f4c2db17945cb76f853b2ef4d70c0dbfd999bd8a558cd2f26460e184',
    'camacho_gorenstein_122 verdict text':
        'aec5580bddbae8ab2f078109d161b0af3cc8d198649b4b9dcf70185d5b7d448e',
    'camacho_unbalanced analyze json':
        '1dfedd11ab0955cff54b296f330458fb30b470d9b93e4cdb6e8d34f218d746a9',
    'camacho_unbalanced analyze text':
        '07db511e23124ca3b4eb9b7c7f6423d27fd699eb0108a81dccae9daa8c983f7d',
    'camacho_unbalanced verdict json':
        '1653f6dba431e3e8095df0b6905f0b896418f477889e047d1a1a97b84d72e743',
    'camacho_unbalanced verdict text':
        'be14afd9ba46a082aa2f606fbc55c32b7d90fdd1fef8fdaa409ff0aa5d0cb7bd',
    'camacho_unbalanced validate text':
        'be14afd9ba46a082aa2f606fbc55c32b7d90fdd1fef8fdaa409ff0aa5d0cb7bd',
    'camacho_unbalanced validate json':
        '1653f6dba431e3e8095df0b6905f0b896418f477889e047d1a1a97b84d72e743',
    'p2_cycle_2 analyze json':
        '1bcd7b671fe8228578ac57ca5cea546d6d61708565cd0623113bf390ea2c5c92',
    'p2_cycle_2 analyze text':
        'c396b53a251daecf35ca36eec1ebf05c252aa5869b4d8d8a6fb69468679cc572',
    'p2_cycle_2 verdict json':
        'd1e84dd694984d6fec292e9e6e815b7f27267f180b0fdf993e4e2b36885b0231',
    'p2_cycle_2 verdict text':
        '4ce053d60e0bfe5b4d520850e7e3b6175200e00123346b1f8dcfd6fcb5453ee7',
    'p2_cycle_3 analyze json':
        'faad9be31c6648e4063f9199c38d0852b36be6aa26623b51666184ea0f427c36',
    'p2_cycle_3 analyze text':
        '4d9e31ba4e7c09b9e8e007cec7f57278e1f44620aec3ebc957b6fe9757f42424',
    'p2_cycle_3 verdict json':
        'd1e84dd694984d6fec292e9e6e815b7f27267f180b0fdf993e4e2b36885b0231',
    'p2_cycle_3 verdict text':
        '4ce053d60e0bfe5b4d520850e7e3b6175200e00123346b1f8dcfd6fcb5453ee7',
    'torsion4 analyze json':
        'bb50172ec1a0fdd6c24ae63f6da0a8676c154397e2f5b5b33a9e79b10f934840',
    'torsion4 analyze text':
        '7a643becbe90cfdd9e07d4cdf3518ad854463f6709fef4a236bc01588455578e',
    'torsion4 verdict json':
        'e2559757ac2d8e9f71325874874905fa8cbb5007daedb1ce3608a3aa568c27c9',
    'torsion4 verdict text':
        'af9df68b7788001f11cc614bdf3f5d4bf34d27593366c9fa60a95f97d52d5eef',
    'torsion4 verdict text E1,E2,E3':
        '6437caebe2034004687c7d951e302893411ce711ee1842866cf2e94f4cabf110',
    'torsion4_gorenstein_444 analyze json':
        'cc7a3e668b673d4d9b9af82e9f38facd6f0c46acb09956753043f39e71b4c21a',
    'torsion4_gorenstein_444 analyze text':
        '517548fa6fdc262497c6da9164360066aeea37fcee25a9af24a1808b4c2124a8',
    'torsion4_gorenstein_444 verdict json':
        'e2559757ac2d8e9f71325874874905fa8cbb5007daedb1ce3608a3aa568c27c9',
    'torsion4_gorenstein_444 verdict text':
        'af9df68b7788001f11cc614bdf3f5d4bf34d27593366c9fa60a95f97d52d5eef',
    'trivial_cycle analyze json':
        '55cc7e46cccf2c136a0be8c64126582a2156f922014c93cd21ec88c77e51b467',
    'trivial_cycle analyze text':
        '8ccb4f0a77217962487ac5e5249afc937230315268cded6fcbae6a0323ffa2c0',
    'trivial_cycle verdict json':
        '40ef82f5ae136446130c2e8c34ec49239732ad15e48904fe1fbdc9d4cf776137',
    'trivial_cycle verdict text':
        'a05a3a61250d98f80d9f2d7c70115f6871045ba5fb08e73a29e5003e74ddbc11',
    'trivial_cycle_weak analyze json':
        '7fdc387b4add1355ceb5f42a4bc443d370375396316692379a69d004c253a00b',
    'trivial_cycle_weak analyze text':
        '47a42abf462657353aaa44cb0728c7e075ad6a649215ee1b38de390f819e67cc',
    'trivial_cycle_weak verdict json':
        '421052c90d91dc9bc76013f0cc411771dae5198db7b986c0e2d4e5c1958fc409',
    'trivial_cycle_weak verdict text':
        'a696825e9543a575e7de16fc680401749b1135907af5106b455befd58be6ab47',
    'strong_attachment analyze json':
        'ea5f44119cca9fd30c840d1b76b9a8fc22fd2c716521cbc6805beea5a3dd42ba',
    'strong_attachment analyze text':
        'a74ae2b3ce6e3b377e51ef12abce58ff698b80f2954bcf37331ede5c097e4bf7',
    'strong_attachment verdict json':
        '00b4b0e60462a1b15f16f3f2607819438b4b3b0f1ffb374a800f0762cf85904e',
    'strong_attachment verdict text':
        '42d9e6dada9b3ce0f91536e01e6f169eea23be27c52fdfbcf5b35a12fae16f55',
    'strong_attachment verdict json E1,E2':
        '32e1dbf0c31d09167c1cf202c7f2183a53c365a31f603f87c7d992240ea3aba5',
    'strong_attachment verdict text E1,E2':
        '74a4057331eca4eaf66ef491cf3e68ba93dddbd68902404986f9272850627884',
    'strong_attachment verdict text E2,E3':
        '882bb8030564d697ec2c99e03cc2e58a2dbd83faf7a64f2937302598cb559d08',
    'quadratic_chain_0 analyze json':
        'f20eb7edac5ad7f1b04b97999e609a4d46b09a09c455fff88133a7901165d950',
    'quadratic_chain_0 analyze text':
        'bbe0338be885d8bbbabba1f03f5d7bb0af0723dc0eb147d86e905338046dd25b',
    'quadratic_chain_0 verdict json':
        '5f7386932d51208ed22406d38f2365c7f0109411a8e1b81a8fbbe0c9e1250332',
    'quadratic_chain_0 verdict text':
        '1ed183daba6614e1acbcac5d44be66dfb9ef4511436c641aad7a7e36276f7be4',
    'quadratic_chain_0 verdict json E1,E2':
        '98d38f3822f098c8b776b095759190f0eac2dc0be157e10762351655a8d1839c',
    'quadratic_chain_0 verdict text E1,E2':
        '4635f2489c0ed30deb57b5e5a3ad64ce1ffddbf782333af09c83d1497a19d79e',
    'random_tree_0 analyze json':
        '2531e4b6a20f6e5165a4b50242e4e096b1f11e56b26038e40c877bb4196ab157',
    'random_tree_0 analyze text':
        '067d6e016286f9feae4c8367605913f84795b6aa96048650e0b817fbd87d26bf',
    'random_tree_0 verdict json':
        '9bb882250d92a6b6e370105f5b480a3ebd3f68e0b5a03cd37fdcf97ed2e6d3d9',
    'random_tree_0 verdict text':
        '68d4de2769e2da2bee57ea9cf58d68f3f69bf37b65bad2b1eb2fa6b38bbb6cee',
    'random_graph_0 analyze json':
        '9beb12a76f48ffe6e8e3d77d5eec4c5500cbc998f6fca0af2b5f8a535cc9ef0d',
    'random_graph_0 analyze text':
        '5b9ed7e68699a9e406c536ac7c2e8f703c954c60e7d031a4a41e0dc3d7d87b01',
    'random_graph_0 verdict json':
        '71391de14293a0d7e2b15400f9bbb3a31edcfbf243c152c3bb0e2ee1531796c9',
    'random_graph_0 verdict text':
        '8dbd74c416226564ca320da0881204ef017dbbd168af55bd3584d13c468552d3',
    'random_graph_sn_0 analyze json':
        '70b35ef8d63932d71776e736cdf937c6d4b0de63187ca476cbb7c30e54ea6232',
    'random_graph_sn_0 analyze text':
        '0d2742b22d9d5cb66eab01c54c0760646381ceecea89e305387b154163efb39f',
    'random_graph_sn_0 verdict json':
        '26aefd19d94351703a73f6663c899b06f627a119aa2d17164929f82c78dc988b',
    'random_graph_sn_0 verdict text':
        'c574284402173ae32077a8d26345f8b3332097aa778a94f3b0116ef5067a8113',
    'quadratic_chain_1 analyze json':
        '762526a7390ba1fd370b1dcb8a457f4d608e045fc0b927c08245ccf017ef6e7a',
    'quadratic_chain_1 analyze text':
        '2077de44cb4b2ee74e3182f87e0cf4a2f6e525ac8e4f4ca0684bb5d9193cbf3b',
    'quadratic_chain_1 verdict json':
        '5f7386932d51208ed22406d38f2365c7f0109411a8e1b81a8fbbe0c9e1250332',
    'quadratic_chain_1 verdict text':
        '1ed183daba6614e1acbcac5d44be66dfb9ef4511436c641aad7a7e36276f7be4',
    'random_tree_1 analyze json':
        'dc4735574365c52baea7d4289b19e74a4e54129697deb29b21905ed724e51949',
    'random_tree_1 analyze text':
        '42a01bf4ae1610179f8187200e5b6162dfbd65ad81ae76d845b89cf32bcb400f',
    'random_tree_1 verdict json':
        '0dda38a54268a0ef5bb20e48e154d2bc501a86945cd53f91aab6724b9710b07f',
    'random_tree_1 verdict text':
        '5bdf68253d8d933292e1f84459f4f780b9fe43cff074bbe7b8f4c58cc1deab46',
    'random_tree_1 validate text':
        '7e53f92b5bc14a60a9c977b1529edd65a7d9deb636b3e0b3e948f44e8c1aa2c3',
    'random_graph_1 analyze json':
        'ff08412ead2670e2bb177a9ffb2ef9e7a960dcb314b9d47b55ce627eee046980',
    'random_graph_1 analyze text':
        'd25873a979ee5d66c413714de7eb1c814dbbfcf546c02de386ce55cb5aa4193e',
    'random_graph_1 verdict json':
        '6891eafd4d8087daa7b848b5ff081f8c6fae2d49030dcf674b1534bfe017ee88',
    'random_graph_1 verdict text':
        '64a1fe8450a3d379a739cd05e6c1b66ef2b4bfd9250f258cb76abd78c27558f9',
    'random_graph_sn_1 analyze json':
        'c2bd55a6e05574860ff7aa1dfe6f1753b60d1e813ea2e367f6ce6afed3f34b5d',
    'random_graph_sn_1 analyze text':
        '7d54a04e737a80006f85b93bb6c3143132a9efc9579855e06d1d76bebdf97b6a',
    'random_graph_sn_1 verdict json':
        '784ed5d995398f9d527f710b5e437a622689b49f013ca45d6d8f67982879bf5c',
    'random_graph_sn_1 verdict text':
        '5c6bd2f4ac6614dfc2b6568ab6e1a414917b2e0e934445db27fd81dd49c16ee8',
    'quadratic_chain_2 analyze json':
        '65aa8f2f18dd3114d694b81e81045c1194c4ab8c24298834c4c0fd660d174773',
    'quadratic_chain_2 analyze text':
        'd198d556953dacafb87745e45ed1fc2e830c5225435315f638a5f1e17b884e8f',
    'quadratic_chain_2 verdict json':
        '5f7386932d51208ed22406d38f2365c7f0109411a8e1b81a8fbbe0c9e1250332',
    'quadratic_chain_2 verdict text':
        '1ed183daba6614e1acbcac5d44be66dfb9ef4511436c641aad7a7e36276f7be4',
    'random_tree_2 analyze json':
        'df7fb3b65db70faefd2cc269435feaccb5a90de63f09cfff8f4ed674888eab61',
    'random_tree_2 analyze text':
        'ec7b6eb1417325b1ce50959b14cc82a3304035c7b81649e8955d31418db8559f',
    'random_tree_2 verdict json':
        '80a8a912886dfe163f1781a664a164229ff35c8645c87cf03ee5687a0505188d',
    'random_tree_2 verdict text':
        '61cd6b25081f5017f84c10d501c8d0b74db294dd375d3a8dbe73b3a8ba650ae3',
    'random_tree_2 verdict text E1,E2,E3':
        '26c80f465fcbdafbcbc84522df4377a822346229f90689ceb81414e481103ade',
    'random_graph_2 analyze json':
        '88b30c25496d9ba746d14410a598161e5dfd1f70e687e88f3bdb794effb76063',
    'random_graph_2 analyze text':
        '1dbd508985ea0f5c3cd4f6e6f6fa5204b353671774b327b6b3aa242734888816',
    'random_graph_2 verdict json':
        'e32df35dc879c276437bd486e72656414dc76e23faae7717c73f4dafdf7aa9c0',
    'random_graph_2 verdict text':
        '740dd927c8473385fb4ecfe3010ec7edc23599fd1a7c0ba67b495c9c562264eb',
    'random_graph_sn_2 analyze json':
        '49f7a6aff7f105defcf43ee3b4e2194922e95614f580c6ea9b8f0591caf84541',
    'random_graph_sn_2 analyze text':
        '6926c4c17f96d3445b0c81259f561fa8463226a0f76565b9b8a1a9b761489e7f',
    'random_graph_sn_2 verdict json':
        'e8015f9a960a87f1dec87afb2ee5ce11a4667b857ccfa65a7d6ce1fd03b97334',
    'random_graph_sn_2 verdict text':
        '9d11f962ca93e80c20d50dfc8f88b2a552767b807a54ec59c36d2025733333f5',
}


def test_reports_are_byte_identical_to_goldens(tmp_path):
    got = digests(tmp_path)
    assert got.keys() == GOLDEN.keys()
    changed = [label for label in GOLDEN if got[label] != GOLDEN[label]]
    assert changed == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for label, digest in digests(Path(tmp)).items():
            sys.stdout.write(f"    {label!r}:\n        {digest!r},\n")
