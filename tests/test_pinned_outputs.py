"""The pinned CLI outputs: every file that sixteen commands write, and the
sparse6k curve command's stdout line, must keep these bytes. A refactor
passes only if it leaves them all unchanged; a declared change of estimator
re-pins only the files it changes and names them in CHANGES.md.

The digests were taken with numpy 2.4.6. numpy does not promise that a
Generator's streams stay the same across releases, so under another numpy
version a failure here may come from numpy and not from lexcent.

Each command runs through ``cli.main`` in its own temporary directory, so
the relative ``--out`` and ``--graph`` paths in ``run_config.json`` are the
pinned ones. ``karate.txt`` is the bundled karate edge list,
``labels.txt`` is the string-labelled edge list beside this file, and
``sparse6k.txt`` is ``sparse_edge_list(1)`` from the benchmark's
``perfbench/workloads.py`` (imported read-only), whose own digest is pinned
too.
"""

import hashlib
import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

from lexcent.cli import main
from lexcent.datasets import bundled_path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LABELS = Path(__file__).resolve().parent / "labels.txt"
SPARSE6K_SHA256 = "e98bb5bf622fb8b16cccef15c6a4da69df07f3770fce0d9ceb9c2371255c4e64"
CURVE_STDOUT = (
    "wrote spread curve for seeds [1659, 2981, 5019, 3948, 4699, 459, 3986, 46, 2521, 2087]"
    " to out/pb_curve\n"
)

# (command, {output file: sha256}); the command's --out directory holds
# exactly these files
PINNED = [
    ("stats --dataset karate --out out/stats", {
        "run_config.json": "f8ddb971d972a4708e29d45ae8a1a1cf16a661349ecc329d896c8e993a453fa2",
        "stats.csv": "df22acd1cc68d5c51ce2ac663218af453057d65454e05da5dba458cabbb0aab2",
    }),
    ("centrality --graph karate.txt --measures dc,lsc --out out/c1", {
        "centrality_dc.csv": "ed5c64fa5ff68f2ff1e7baa1fe367eeecbd1386bddcbf2002cf8df16cc6792cc",
        "node_labels.csv": "b29d3aafbcc0f169019c401b30c03f792dd41086d3190e13df334989766faab3",
        "ranking_lsc.csv": "9c19d8b7f3974933d471f7a86fad6e7f2397472ac0e4a59cd02bc60ac57edee7",
        "ranking_lsc.json": "cf7ab9521e263079818ff8d582ccdf58c4278bdb519c6503e5cea50375785ca5",
        "ranking_matrix.csv": "ff9d38f2ee3448726e6f2908ca4c8f5519b74b2e4474296b5b628b0e03872c43",
        "run_config.json": "33f15422de6615f9fc76ee75629603a9d523fb4de06469633b3351b8e48545ac",
    }),
    ("centrality --generate ba:1000:10:42 --measures gc --out out/c2", {
        "centrality_gc.csv": "7cb56fe7132682feed019a64ed9aa6660fe664c9de72a2a7e10f48e7ff9a89e0",
        "run_config.json": "206e0dc5938c9eb3db166644bc071407b6549fe7a541e1e9cd70feb4fd7b7bef",
    }),
    ("centrality --graph karate.txt --measures lsc --precision 2 --rounding truncate --out out/c3", {
        "node_labels.csv": "b29d3aafbcc0f169019c401b30c03f792dd41086d3190e13df334989766faab3",
        "ranking_lsc.csv": "ceef02794948f3147dc4b070fcb3bed0d0c157031d1707e467e090fafe6be17d",
        "ranking_lsc.json": "e97221120f8776d35c2ed32d1060f3f9696dbf7e46637f44561f49d0d8abc023",
        "ranking_matrix.csv": "2ab00e97c9479546fef460aab52eb609879753b745f510f00216f4f3f93f18da",
        "run_config.json": "87e077014b8e007fb85d30487d225b08803ed83d713f873399fff99dc20d978c",
    }),
    ("centrality --graph karate.txt --measures dc,ec,cc,bc,gc,lsc --out out/c4", {
        "centrality_bc.csv": "f9ead2abfd271e5bce23ab9f58d7c661281c1b6a2b46a3a2806c953191bf8ae0",
        "centrality_cc.csv": "2ab0960961b68b97fc36a94f5d19cd1f5898c0fdd7657793c21fc962981944d6",
        "centrality_dc.csv": "ed5c64fa5ff68f2ff1e7baa1fe367eeecbd1386bddcbf2002cf8df16cc6792cc",
        "centrality_ec.csv": "80e9c66dc2e7788969153b4547ae88bf18843cf0dd30886f884af8d2a19ac779",
        "centrality_gc.csv": "3f9f8a46726cc68ca528cb78b09af495e050566cbf6bccd01f1189de46b7ff89",
        "node_labels.csv": "b29d3aafbcc0f169019c401b30c03f792dd41086d3190e13df334989766faab3",
        "ranking_lsc.csv": "9c19d8b7f3974933d471f7a86fad6e7f2397472ac0e4a59cd02bc60ac57edee7",
        "ranking_lsc.json": "cf7ab9521e263079818ff8d582ccdf58c4278bdb519c6503e5cea50375785ca5",
        "ranking_matrix.csv": "ff9d38f2ee3448726e6f2908ca4c8f5519b74b2e4474296b5b628b0e03872c43",
        "run_config.json": "487030b65932d7e48516182f46b8498b91823c23531682f4b93b04155de81b49",
    }),
    ("centrality --graph labels.txt --measures dc,cc,lsc --out out/c_labels", {
        "centrality_cc.csv": "6644375afbbe2fa987b576022b3f812ad772670478a58e32a9bf0fb1cb3a9ee7",
        "centrality_dc.csv": "53748bba7ca6933a5b1bf91c98f748c2570206d9ce5e8850d8ff2506e7a0de9e",
        "node_labels.csv": "3a3de9f730ccfc6acd7b72ffd58a03e499772aeb898f08a47970867f5785dc80",
        "ranking_lsc.csv": "6f5e5ef8d956b016f80c80b290e2c1914be86eadc57795468c18f1a24973091a",
        "ranking_lsc.json": "7a7cccdfef99369f9cd8989fd64857af2e2ac3b50d3d1ceaadc3fc928c304a8b",
        "ranking_matrix.csv": "ce50cce2600c548d0110fa832b4b97f288ee8fae0cc0cac040b68b71fe238853",
        "run_config.json": "706ef23cee595633f28fe2db7d8f1b23c28d011130298046332367fd6010f8e8",
    }),
    ("sir --graph karate.txt --beta 0.1 --gamma 1 --reps 1000 --out out/s1", {
        "node_labels.csv": "b29d3aafbcc0f169019c401b30c03f792dd41086d3190e13df334989766faab3",
        "run_config.json": "eff0fc4f65f723a4180b14288b5d7f44b73fa8dcdca5988ef78086e884af2309",
        "sir_scores.csv": "f75bb54628d3e512cf2c55f4b389fde73954580f131ac2208d94aff87232871d",
    }),
    ("sir --dataset karate --seeds-from lsc --top 10 --beta 0.05 --steps 25 --out out/s2", {
        "node_labels.csv": "b29d3aafbcc0f169019c401b30c03f792dd41086d3190e13df334989766faab3",
        "run_config.json": "b8adc940c50e0f3e53833cb05fab027027dfd82d3d8e4680da66caa95f97e2ae",
        "sir_curve_lsc.csv": "56be610c0bf921f7b1fa7a153d423dc3dc6552522a446a5014ce5009da15c122",
    }),
    ("sir --generate ba:300:3:2 --beta 0.2 --gamma 0.5 --reps 20 --out out/s_ba_gamma", {
        "run_config.json": "07e4e042974d2d7f2bf07256fd76deaf3d3a7c61de2db3c03dd37d2ef992345f",
        "sir_scores.csv": "25f156bfeabe672e17daa956a153364af56ad13bfc9ae0ff2a341b701f62a0bc",
    }),
    ("sir --dataset karate --beta 0.1 --steps 4 --reps 100 --out out/s_steps", {
        "node_labels.csv": "b29d3aafbcc0f169019c401b30c03f792dd41086d3190e13df334989766faab3",
        "run_config.json": "d82b768566c90dc62682682c8c3e470c230cf92c5d4f65d583b134f981b3989a",
        "sir_scores.csv": "ac91c13a7bd8c7c3a1b5d07df385f1c24154ed742810ede0f7b7e71406e108cd",
    }),
    ("evaluate --dataset karate --beta 0.1 --reps 1000 --x-percent 5 --seed 7 --out out/e", {
        "eval_report.csv": "c76c05904fddb227e4e788d67cc0e31700dba89cf057b674742991e42951284c",
        "eval_report.json": "a7573283818465b8257cde27404733f1e238486c601cd4e3ef7d9a49ccfc9b4e",
        "inversions.csv": "5b428ac69981b629b18dde0fe15c5552538e02e64fbf749cea8d37cabf89d906",
        "node_labels.csv": "b29d3aafbcc0f169019c401b30c03f792dd41086d3190e13df334989766faab3",
        "rank_vs_score_bc.csv": "cfe156df6ef78598cfc1c06562d07158be5fedf1f861e597a129e82cf79486f8",
        "rank_vs_score_cc.csv": "404bfd01c5fcaca683cdf6ff495fe08d67f0c9a64734c7ca6d7ef11582b5bb45",
        "rank_vs_score_dc.csv": "cd429080b0e81366294226cc2f1a162f32bad7df183bcc6396719396e8394780",
        "rank_vs_score_ec.csv": "e8a45498d41a0ad6e64298a881954b428c16363ae9b5dd014af014155fd5f6fb",
        "rank_vs_score_gc.csv": "e1833cd68a3d9b8acf79c8e2bac72a394cf082ac20d0265e4db8ff05c8025767",
        "rank_vs_score_lsc.csv": "8a54b82e7cef4cff0f3506c479be3908430ec2061b205bf9e28072b0ac7f8d46",
        "run_config.json": "c2546571f882debf3a5d505d00de666196190eaaa9b17ada441d37c3533e6fca",
        "sir_scores.csv": "62dea0766c08c14763db83e0693434553d9f5761cbbda103689f84a56b715320",
    }),
    ("evaluate --dataset karate --beta 0.1 --gamma 0.5 --reps 200 --seed 3 --tau-variant b --rounding truncate --precision 2 --measure-order ec,gc,dc --cc-convention paper_literal --gc-radius 2 --x-percent 10 --out out/e_tau_b", {
        "eval_report.csv": "321126feee9b377c51738fd0887d27833b820c110215d4fd890cc800172d946d",
        "eval_report.json": "b080b961499ad4067d864a426bebfdc04ba558e29f71500fe80c9cca4a03e891",
        "inversions.csv": "16f283b3959a2dd85427ca0df651f9848fb1f18e00281c5729c2f03e77df339c",
        "node_labels.csv": "b29d3aafbcc0f169019c401b30c03f792dd41086d3190e13df334989766faab3",
        "rank_vs_score_bc.csv": "639a0ee00cd90d6519cfb92b4391271c8bced55a27f8b4bc5b37b74476a9bd95",
        "rank_vs_score_cc.csv": "4cd601a7d735553a58cee902f93645ba9c33149fb4c7ed967bbc8dc7a17d6899",
        "rank_vs_score_dc.csv": "4c27c603b768d429a144893f4edaaf26231d0c8d3400d1c8d5bc4b8c414e89de",
        "rank_vs_score_ec.csv": "5a9726db1cd2026ebd80ff47d7f3a65fe3989abd61653d84396a85370ff2460a",
        "rank_vs_score_gc.csv": "a2c50a791fd87811994b057c6417a326f86768f708620b1aeeb8fc83bfa4c23e",
        "rank_vs_score_lsc.csv": "3b4b643d5fdf1dc97d2d0f97976b04f97bbaa5ba571f0f2d4848a3a9d377bb5e",
        "run_config.json": "928e7767fccdffec0963e8b995aad407f8149f70a9a6e265dcae46bb9cc145be",
        "sir_scores.csv": "c9990dca0f02506efc7bba22caf91086adbc8c256c66ee6d50a92a6f773f0379",
    }),
    ("evaluate --generate ba:60:2:1 --beta 0 --reps 5 --tau-variant b --x-percent 10 --out out/e_null", {
        "eval_report.csv": "6d7b58560ebd976f0f42f1afc400399d121f548bca459b70d2adbdd166e8d430",
        "eval_report.json": "84625fd405bc39d1a61ace295c7917c5f38124a42378e1ecabcb7d9df62e714a",
        "inversions.csv": "372bab28a7d48afacad50d6296c5263911ae74b04143e6e623ca072f1e03a2e6",
        "rank_vs_score_bc.csv": "173ef80f8d7f2d9bc2081fd7f4348bec39ca6823c29c8abf64673ac2d19153ef",
        "rank_vs_score_cc.csv": "310adb1a5ee2c058b4eed0de263a845f1ce102ff723691af52c4624b5e8e1392",
        "rank_vs_score_dc.csv": "c5bc3d9ee9b6c7535c2b5390b84a6ca2d53e6e0a0305ebaa20fef95dd1bf6c4c",
        "rank_vs_score_ec.csv": "39f862eb6beb05774d4bf8994953cbfe0710409142a53ff29b6de36a9235f99d",
        "rank_vs_score_gc.csv": "2479c90069643ef80213d610a2c39252fc558613f5c5cd4f4b863648219174b9",
        "rank_vs_score_lsc.csv": "fcf58226ddd6623998e21e416495657ed1e0484ee0b7954f8cc9d329a4f43bce",
        "run_config.json": "1c44686ffa5f9ada69d07e83f8748f3a6e7827073a1d384c6ede81502d4d5bb2",
        "sir_scores.csv": "93579f3eb77c988eb18a8e1a75cce6f4a784ae87dcc5e3fe57b9fa1c8a4bfd8d",
    }),
    ("evaluate --generate ba:1000:10:1 --beta 0.01 --reps 100 --seed 1 --threads 1 --out out/pb_eval", {
        "eval_report.csv": "909c803140f68a7d7a8d26643efd1e689d85d96c9c67f4ad78938ce5b7835820",
        "eval_report.json": "44c6f89a0983e3c94a5d6628cddd82397557eafb03b882c6f89e6a4dc4070f3c",
        "inversions.csv": "2152269c85ff9b1a3f0120208ed13a8c29f46fb1738d48b848e0152ff0752ecf",
        "rank_vs_score_bc.csv": "1ab838ac3960e9ed1e0ebdc71a1f2b7211f16a8f622d28bc290ebceef2249924",
        "rank_vs_score_cc.csv": "4cf8f0601a4ba6bcf33d36f29dbfeff2a53da186755fe35cc84e8b4b4011b31d",
        "rank_vs_score_dc.csv": "d2e2c9e8f09357a58f62c16e302ce88bbaf443c586e22419f241780dc4ea77bf",
        "rank_vs_score_ec.csv": "d1879983a4d3f34c19bc5dfe325613de57977a9bffa6e5bbf4a7c8f7f238bd96",
        "rank_vs_score_gc.csv": "a57822f8b421c7c8a19ef0504dbb61aee312185cd7ee31c9656bd454e7ed8149",
        "rank_vs_score_lsc.csv": "40cb185200dfe4231587f6e98e02d9dccfb0e7b722a4f31af9f407fdaa23630f",
        "run_config.json": "16cf924c9c5c42da122bba90b0c56a2ab231b0ea87ef7fc555645e0fdb346c7d",
        "sir_scores.csv": "83581aa953e6891d6cf5d060ae78260e9880a5e6b0457ad1220e29c7b0e7c393",
    }),
    ("sir --generate ba:1000:10:1 --beta 0.01 --gamma 1 --reps 300 --seed 1 --threads 1 --out out/pb_gt", {
        "run_config.json": "06f027d2a12acd3b54a318c1d49fb1158ae182d4d976a3e4d94ee6f9a48aa5af",
        "sir_scores.csv": "6a2be02ef66ba1bb629843040325a7d5853273eb07778a4508071f67d3463ffc",
    }),
    ("sir --graph sparse6k.txt --seeds-from lsc --top 10 --beta 0.1 --gamma 0.5 --steps 50 --reps 3000 --seed 1 --threads 1 --out out/pb_curve", {
        "node_labels.csv": "e02fd2cb2cd437e46036dc60dc8ba75f8344c7a39d76f76d7630dc0a57345a71",
        "run_config.json": "9a4942324fde3c2dc6638ddcf13c038bd0ab92b57513f7ceaeeae56ed960280b",
        "sir_curve_lsc.csv": "35e6358ca4b1e6b83200362604dfaacce935dba099a250d3b77e69e952da6509",
    }),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def sparse6k_text() -> str:
    """The benchmark's sparse6k edge list at seed 1."""
    spec = importlib.util.spec_from_file_location("_pinned_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # workloads.py imports its sibling checks.py, and its dataclass needs
    # the module registered while it runs
    sys.path.insert(0, str(PERFBENCH))
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        del sys.modules[spec.name]
    return module.sparse_edge_list(1)


def test_sparse6k_input_is_the_pinned_one(sparse6k_text):
    assert _sha256(sparse6k_text.encode()) == SPARSE6K_SHA256


@pytest.mark.parametrize("command, digests", PINNED, ids=[c.split(" --out ")[1] for c, _ in PINNED])
def test_pinned_command_outputs(command, digests, sparse6k_text, tmp_path, monkeypatch, capsys):
    shutil.copyfile(bundled_path("karate"), tmp_path / "karate.txt")
    shutil.copyfile(LABELS, tmp_path / "labels.txt")
    (tmp_path / "sparse6k.txt").write_text(sparse6k_text)
    monkeypatch.chdir(tmp_path)
    assert main(command.split()) == 0
    out = tmp_path / command.split(" --out ")[1]
    written = {path.name: _sha256(path.read_bytes()) for path in out.iterdir()}
    assert written == digests
    if "sparse6k.txt" in command:
        assert capsys.readouterr().out == CURVE_STDOUT
