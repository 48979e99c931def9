"""Golden outputs: state digest, block-log file hash and summary per configuration.

Each case runs the full pipeline on a bootstrapped ledger exactly as
``crdtsim run --save-blocklog`` does and compares the world-state digest, the
sha256 of the saved block-log file and the report summary with pinned values.
With each write value that refers back to an equal one of its record
expanded to its base64 text, the file and its bytes after the genesis record
(the run's block records) also keep their pinned sha256: the file as saved
when every write held its text, and, after the genesis record, the block
records the bootstrap as one transaction per key saved after its bootstrap
blocks. A refactor must leave
every value unchanged; a deliberate behaviour change updates the affected
cases and says why. The sha256 of every metric table of one small
``crdtsim bench`` sweep is pinned the same way.

crdt mode on the fresh snapshot policy stays at 40 transactions: there the
hot documents grow about 25-fold per block, because the crdt chaincode writes
the whole stored document plus the reading, so each write of a block
re-appends the stored history; larger runs are slow.
"""

import hashlib
import json
import struct

import pytest

from crdtsim.bench import run_single
from crdtsim.cli import main
from crdtsim.jsoncrdt import canonical_json_bytes
from crdtsim.txpipeline import PipelineConfig, save_block_log
from crdtsim.workload import WorkloadConfig

# (id, pipeline fields, workload fields, cut reasons, digest, block-log sha256
#  and sha256 of the block records after the genesis record, both with every
#  write-value index expanded, sha256 of the saved file itself, summary)
CASES = [
    (
        "crdt-batch-hot", {"mode": "crdt"},
        {"total_txs": 100, "conflict_pct": 100},
        ("count",),
        "2521acbaf6318aec0481bc856c4aa866d7801025b3f1ba889c69f01a6b0202c3",
        "d15b670b4d93bdb497e8732397ff116c0a917f6cf02c73b85608dd4bc64d575c",
        "fe5b70e1ae50f2f4b1385b000bb484e638483b0617c89d943e590dbb8dfba648",
        "86408f054fb8289b02fab1c78a47b09e7a146fbfc06471788fb9f7b1b09778b3",
        {"throughput_tps": 303.030303030303, "avg_latency_ms": 40.00000000000001, "success_count": 100, "failure_count": 0},
    ),
    (
        "crdt-batch-cold", {"mode": "crdt"},
        {"total_txs": 100, "conflict_pct": 0},
        ("count",),
        "9245ae1331259d075197d97a637eda954a10aa55009bd8543134d558b3f42274",
        "a67869349d2547d20025a354c6613e570c9bd677b76635b915393576ecbff505",
        "12b5508d4bdbe605479adb853a54747f12a3b4ba390f1e1231d04e4ce2e3c6dd",
        "a67869349d2547d20025a354c6613e570c9bd677b76635b915393576ecbff505",
        {"throughput_tps": 303.030303030303, "avg_latency_ms": 40.00000000000001, "success_count": 100, "failure_count": 0},
    ),
    (
        "fabric-batch-hot", {"mode": "fabric"},
        {"total_txs": 100, "conflict_pct": 100},
        ("count",),
        "d2175d4b3ba23cacfb48f5f9a7e6be6d0e49a1d1a59054d0790720aa4712f188",
        "37f90b7b63ee035a999a67af33cb20dc3d648102ee5ff807e7593e99bcc93212",
        "bde90c39cf68022025956e6b1c92fd6781a0f206cd0357f4d532050aa7d66514",
        "7e02015842b4410f40544eb62fe7b77688c690dc84a132446f2bd594c49ee870",
        {"throughput_tps": 12.5, "avg_latency_ms": 80.0, "success_count": 1, "failure_count": 99},
    ),
    (
        "fabric-batch-cold", {"mode": "fabric"},
        {"total_txs": 100, "conflict_pct": 0},
        ("count",),
        "9245ae1331259d075197d97a637eda954a10aa55009bd8543134d558b3f42274",
        "a67869349d2547d20025a354c6613e570c9bd677b76635b915393576ecbff505",
        "12b5508d4bdbe605479adb853a54747f12a3b4ba390f1e1231d04e4ce2e3c6dd",
        "a67869349d2547d20025a354c6613e570c9bd677b76635b915393576ecbff505",
        {"throughput_tps": 303.030303030303, "avg_latency_ms": 40.00000000000001, "success_count": 100, "failure_count": 0},
    ),
    (
        "crdt-fresh-hot", {"mode": "crdt", "snapshot_policy": "fresh"},
        {"total_txs": 40, "conflict_pct": 100},
        ("count", "timeout"),
        "3121fa1f1c237928a5748bb35b96b73e88b0ba09554856efe471cf4f1feb8474",
        "cdc231f93dab0f3c430c5ab98b357f90ba527ef4e72f641c7bae97fec2d6b3fe",
        "38b2b9f896370ab2d2cf0437ad33077c1d2a3916da80b87b28c250e1f2067533",
        "9de50b7f8ac6c8f159827d7cf579124d6a2f7349ede2d33daf540c1ca36170bd",
        {"throughput_tps": 19.2, "avg_latency_ms": 766.25, "success_count": 40, "failure_count": 0},
    ),
    (
        "crdt-fresh-cold", {"mode": "crdt", "snapshot_policy": "fresh"},
        {"total_txs": 40, "conflict_pct": 0},
        ("count", "timeout"),
        "d18b766edc25bfd7a38e41ac2669c180b342142eace54b27eebe61459f6ec15d",
        "ac264cdb4ec654e2431cf1c01e6588f431d465925f79fbed7bdf41415863a2c9",
        "806af4fde8aeaa8fd591ecc6f563f626d9dbb95f0af5f0cd7cdec518520d3e07",
        "ac264cdb4ec654e2431cf1c01e6588f431d465925f79fbed7bdf41415863a2c9",
        {"throughput_tps": 19.2, "avg_latency_ms": 766.25, "success_count": 40, "failure_count": 0},
    ),
    (
        "fabric-fresh-hot-40tx", {"mode": "fabric", "snapshot_policy": "fresh"},
        {"total_txs": 40, "conflict_pct": 100},
        ("count", "timeout"),
        "93fc513599824a3e72d424c5d77c832e2b53b5b99a4798f0c704e3da32086ca4",
        "e6133c93b46b6a9005cb41d756435c7a42a501fc53bfc53b2db1121298581761",
        "746ae81d830769ae544c511d85d9a09d086c105e3879e0906da560a91d804838",
        "5a6be35e34cf24ae62ef89c1a9e2db49807890bda12b255f2734af126ca9dfa8",
        {"throughput_tps": 0.96, "avg_latency_ms": 1040.0, "success_count": 2, "failure_count": 38},
    ),
    (
        "fabric-fresh-hot", {"mode": "fabric", "snapshot_policy": "fresh"},
        {"total_txs": 100, "conflict_pct": 100},
        ("count",),
        "bbeab584ce8adae0c5322ef7d52258c4491e347c2c493b7054339c640ccf774a",
        "732c0480b439f4c32ac91bed44245425beee3e3216835c4e56296843714b03a5",
        "fa0d3d9c0738eca882bdd9d355f729a4e9def521088408ffcfbea449d25edb57",
        "41e54c450ce10e8c0d571ec1a471729f9a278548f884ba3c2542f6e8b192c73e",
        {"throughput_tps": 12.121212121212121, "avg_latency_ms": 80.00000000000001, "success_count": 4, "failure_count": 96},
    ),
    (
        "fabric-fresh-mixed", {"mode": "fabric", "snapshot_policy": "fresh"},
        {"total_txs": 100, "conflict_pct": 30},
        ("count",),
        "09ebf305fd826f6a5a32e40c4c80f21687ecd7fe1be9bd42b64f47bd0074a8cf",
        "57fcee684ec029b71523b137d60a3c6b8890512e3d64858ed904d45d97de7c58",
        "7c1882467368b4c1c37f78894209fd32542ed29f7ab7f0d37ddf61ebc71e17ce",
        "ddcd79950a7134fac71286ab4a6f72a44594c9e0039fb3a56068ab71e0f5ca82",
        {"throughput_tps": 224.24242424242422, "avg_latency_ms": 38.82882882882884, "success_count": 74, "failure_count": 26},
    ),
    (
        "crdt-rw3-json2x3", {"mode": "crdt"},
        {"total_txs": 100, "conflict_pct": 30, "n_read_keys": 3, "n_write_keys": 2, "json_keys": 2, "json_depth": 3},
        ("count",),
        "b643954591ee3b4bf26665779046c4cc8c2b9928c33be983d35f62202d782918",
        "1d13a476ee36d65cdfa6613866c508716dffc53fd5609191e57376f8b4cac0cc",
        "ac9a3f7dd6fd2dd5d0396cbb99aba697be651f76878d541064fe96b0318b23dc",
        "2fb69d3a067de2bd43738afefd5f91af40f7dad12fd5de255bf83364a1bd2f3a",
        {"throughput_tps": 303.030303030303, "avg_latency_ms": 40.00000000000001, "success_count": 100, "failure_count": 0},
    ),
    (
        "fabric-rw3-json2x3", {"mode": "fabric"},
        {"total_txs": 100, "conflict_pct": 30, "n_read_keys": 3, "n_write_keys": 2, "json_keys": 2, "json_depth": 3},
        ("count",),
        "1985aa87cbd1210815e7fbba15c8d136bc298f52ac9573a2e0b43dfc2c672ba2",
        "206492287175fe23764ad468fb416d35c2cd079838549128a47e0ce929394b10",
        "c4f1abc2a0d26d231bb38aee0e34775571b8a20ec36ae943fea02e9291494719",
        "206492287175fe23764ad468fb416d35c2cd079838549128a47e0ce929394b10",
        {"throughput_tps": 215.15151515151513, "avg_latency_ms": 37.230046948356815, "success_count": 71, "failure_count": 29},
    ),
    (
        "crdt-bytes-cut", {"mode": "crdt", "max_tx_count": 25, "max_bytes": 2000},
        {"total_txs": 60, "conflict_pct": 30, "json_keys": 2, "json_depth": 3},
        ("bytes", "timeout"),
        "b4bd9215913ed36c461eed9ea074c94710e847ffe988f6fbf4c2afc4e2e0fe7b",
        "4199e98379205be2abba42bb40c534e2aefa576ddc8fc1fe85ef056532879fb8",
        "10a43be14ac7ea2d628809874357e85f03af0f80bda0ebf560261f271369c9e9",
        "bee47616e99fb0c4bf5b7a35d9e878361c0559862d9878545885b5127b560e0c",
        {"throughput_tps": 27.480916030534353, "avg_latency_ms": 175.27777777777777, "success_count": 60, "failure_count": 0},
    ),
    (
        "fabric-fresh-bytes-cut", {"mode": "fabric", "snapshot_policy": "fresh", "max_tx_count": 25, "max_bytes": 5000},
        {"total_txs": 60, "conflict_pct": 30, "json_keys": 2, "json_depth": 3},
        ("bytes", "timeout"),
        "2a027645fc3ee4241ba4aa9f85f4156f34fb355b11aea4b296453ab56fb3afe3",
        "3a53249ff5abcc5dc4fa8b8eaf6bd834332a3a405032444f7ba93b2a94a18746",
        "a8b4195ca0ae95b5412a12b086805a3ab6e941b42392b2b57f7a5df934bc2caf",
        "3a53249ff5abcc5dc4fa8b8eaf6bd834332a3a405032444f7ba93b2a94a18746",
        {"throughput_tps": 22.085889570552148, "avg_latency_ms": 306.18055555555554, "success_count": 48, "failure_count": 12},
    ),
    (
        "fabric-timeout-cut", {"mode": "fabric", "max_tx_count": 1000, "block_timeout_ms": 50.0},
        {"total_txs": 60, "conflict_pct": 30},
        ("timeout",),
        "6241d070a5d88fbc723e43e1fd62d9c4c3e587de3242901ce9612fcefc0595be",
        "c8b30b19ffd9d30458d9c17a5e478604c81a81ace0b25df9b939aaa1b3ec2ca7",
        "200ea9f7f8ca9e2ba15bc98c24e177def7dabec323440befa4ab0df4fb3eba1c",
        "c8b30b19ffd9d30458d9c17a5e478604c81a81ace0b25df9b939aaa1b3ec2ca7",
        {"throughput_tps": 211.4754098360656, "avg_latency_ms": 26.434108527131784, "success_count": 43, "failure_count": 17},
    ),
    (
        "crdt-timeout-cut", {"mode": "crdt", "max_tx_count": 1000, "block_timeout_ms": 50.0},
        {"total_txs": 60, "conflict_pct": 30},
        ("timeout",),
        "ef8065679c0035d8b1b2b4029661e7e45b21064d7cba13587705da5e131bac9b",
        "69561923fa0882beadd52ee5850f58ace11cb3004ca74b0ff94c49a7611af74f",
        "9310238e7f315656bf277bd2fcde4117a0dde9d604515a4cc0323b82bd224ff7",
        "3ed119400f8ac32875410b1efa2e51d4382fbeccaa6448a959abad279d6a4b64",
        {"throughput_tps": 295.0819672131148, "avg_latency_ms": 26.61111111111111, "success_count": 60, "failure_count": 0},
    ),
]


def expand_references(data: bytes) -> bytes:
    """The block-log file with each write value that refers back to an
    earlier inline value of its record replaced by that value's base64 text:
    the file as saved before the log wrote each distinct value once per
    record. A record without a reference is kept as it is."""
    out = []
    offset = 0
    while offset < len(data):
        (length,) = struct.unpack(">I", data[offset:offset + 4])
        record = data[offset + 4:offset + 4 + length]
        offset += 4 + length
        doc = json.loads(record)
        inline = []
        expanded = False
        for tx in doc.get("transactions", ()):
            for write in tx["writes"]:
                if type(write[1]) is int:
                    write[1] = inline[write[1]]
                    expanded = True
                else:
                    inline.append(write[1])
        if expanded:
            record = canonical_json_bytes(doc)
        out.append(struct.pack(">I", len(record)) + record)
    return b"".join(out)


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_golden_outputs_are_unchanged(tmp_path, case):
    _, pipeline, workload, cuts, digest, log_sha256, blocks_sha256, file_sha256, summary = case
    outcome = run_single(PipelineConfig(**pipeline), WorkloadConfig(**workload))
    path = tmp_path / "blocks.log"
    save_block_log(outcome.log, path)
    run_heights = {t.block_height for t in outcome.report.txs}
    assert tuple(sorted({b.cut_reason for b in outcome.log if b.height in run_heights})) == cuts
    assert outcome.ws.digest() == digest
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == file_sha256
    expanded = expand_references(data)
    assert hashlib.sha256(expanded).hexdigest() == log_sha256
    (genesis_length,) = struct.unpack(">I", expanded[:4])
    assert hashlib.sha256(expanded[4 + genesis_length:]).hexdigest() == blocks_sha256
    assert outcome.report.summary() == summary


# sha256 of each table written by
# `crdtsim bench --experiment conflict_pct block_size rw_keys --mode both --scale 0.02 --seed 3`
BENCH_TABLES = {
    "block_size_crdt_avg_success_latency_ms.csv":
        "f9b6ccd0d292a9bd0bc24ed3d2109d65a2eb13c016faaa6c5bcc6e033b5a039c",
    "block_size_crdt_failure_count.csv":
        "2424076ea3a7e640f7756f368cb1a1d3f807c56d939f624867b6023d5c8b448c",
    "block_size_crdt_median_block_merged_bytes.csv":
        "3bab2bf90ba2df4f6d010aec4f764841ba7f530605cde3557e9e124ff61312a2",
    "block_size_crdt_success_count.csv":
        "d96d3db5360bcadf7c5f268d212111d478b961e72a1cd3f3f8867ab58e190e5c",
    "block_size_crdt_successful_throughput_tps.csv":
        "63e3ae2960a7bbc3ef8c5d633dbac98c2311a303393f94f41c8b2af448194eda",
    "block_size_fabric_avg_success_latency_ms.csv":
        "e43bf2e7515cf4a1bfca25942ec559b2cbf7f73a36153054317e438597bf2d25",
    "block_size_fabric_failure_count.csv":
        "0916d46e675c4c1cc892ec0425521081d1f210ff3051b862694c0a4b9fc1c547",
    "block_size_fabric_median_block_merged_bytes.csv":
        "440da9ddff5d80ab2d5c4581f2012a63663a86b6eccdcd45575b9578411c2478",
    "block_size_fabric_success_count.csv":
        "5f3f1a4e8118ad315fb6a77b3d8a3ab0131001be95478f2c58a25539ca45db69",
    "block_size_fabric_successful_throughput_tps.csv":
        "37f1d4129edfebe5646acab3280867a1c4d8774d9c5710677e6389fa4eb884dd",
    "conflict_pct_crdt_avg_success_latency_ms.csv":
        "76d64ad860447678c15087acd321ab5b299d11ee90511f6f7d31a8bef9dbebe9",
    "conflict_pct_crdt_failure_count.csv":
        "4c0884e65684402fc4b3bbc0b15de31059e3b82cc44722a5e294c2149328a806",
    "conflict_pct_crdt_median_block_merged_bytes.csv":
        "828495238fb4b3189e1d0f6fe65e8161df493913d84e237055bcdcf93e7bf675",
    "conflict_pct_crdt_success_count.csv":
        "1ddc4429c5f7cbaa125f9282c862ae9065b542d8019e0d3317520d10b7da70b4",
    "conflict_pct_crdt_successful_throughput_tps.csv":
        "fa87f2516d8189d742fcb0e0223bea37cce5d4af3a283436dc54f779bbff2a80",
    "conflict_pct_fabric_avg_success_latency_ms.csv":
        "d256a8e001a0fea05a27ec7f4c168aa3fe742afd56f60b55f0fd0e8f9e259e91",
    "conflict_pct_fabric_failure_count.csv":
        "043e4adf74947de9fb46d00783500268bb06c5bd70e61af93571143da386b373",
    "conflict_pct_fabric_median_block_merged_bytes.csv":
        "802a98227d1a520b6484fa648530b3a1c9734f60ad39ae99bfe739921b1a789a",
    "conflict_pct_fabric_success_count.csv":
        "2bff16851fc6a8505eca753a9d24e76a3b43c0593452c291b62084a04e39ae95",
    "conflict_pct_fabric_successful_throughput_tps.csv":
        "b3387ef8bed5abbc92a53812e076c27109af8cc0edf0e24c041347b93996ed71",
    "rw_keys_crdt_avg_success_latency_ms.csv":
        "7164185ddcfea2afb907eaf70bd631a626f1a41d78f6e7657cabf5c3bc26ab38",
    "rw_keys_crdt_failure_count.csv":
        "881bd6264e8f4b21c945ec69b940b10adf556f9a9b2693f158a536317e98dbcd",
    "rw_keys_crdt_median_block_merged_bytes.csv":
        "d1ba39da16fcf833fc7fdc5418f4826319f6204bf02ae7a79fbc555440d34da0",
    "rw_keys_crdt_success_count.csv":
        "910e310da98e6a8e8b6da9c85b0c0afd98f4a87f071013d9340f006c5a333770",
    "rw_keys_crdt_successful_throughput_tps.csv":
        "bbf4f006d4b82db9e1dc48772dbd3fa33038d8de7cd574c0bff69c08729f7e23",
    "rw_keys_fabric_avg_success_latency_ms.csv":
        "8d377c15b17bd595d1593ca4074cd305ac45ee87f1b0c380aeb5923a18d3bfd3",
    "rw_keys_fabric_failure_count.csv":
        "bf136d2edc6c66792d7f1dc0c729ea3ccc167be7efcfef60a36442cac68efcdb",
    "rw_keys_fabric_median_block_merged_bytes.csv":
        "bca3f9276da5ad824c7c3b3e253f9d373946ca45f7b8e5149c7cfd12ad694b2e",
    "rw_keys_fabric_success_count.csv":
        "1906fa0c5059954194ece899fe0a54a0f524638351af06b70e7fcacdaaec20f0",
    "rw_keys_fabric_successful_throughput_tps.csv":
        "4061af4e342fe31bef9cf4900a1ea8e7348edf71863f51e2b93b58bc96b745cc",
}


def test_golden_bench_tables_are_unchanged(tmp_path, capsys):
    assert main(["bench", "--experiment", "conflict_pct", "block_size", "rw_keys",
                 "--mode", "both", "--scale", "0.02", "--seed", "3", "--out", str(tmp_path)]) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert written == BENCH_TABLES
