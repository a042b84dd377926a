package algorithms

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/lts"
	"repro/internal/machine"
)

// ltsDigest pins one registry program's LTS at one instance size: the
// SHA-256 of its AUT export (structure and action alphabet) and of its
// DOT export (which adds the τ diagnostic labels).
type ltsDigest struct {
	id, prog     string // algorithm ID; "impl", "spec" or "abstract"
	threads, ops int
	aut, dot     string
}

// registryDigests was generated from the hand-coded registry before the
// treiber, ms-queue, dglm-queue and spinlock-stack rows moved to their
// BBVL sources, so it holds every row — ported or not — to the LTS the
// original encoding produced. A future port must match its rows here.
var registryDigests = []ltsDigest{
	{"treiber", "impl", 1, 2, "24468037da617c28f40c8b10a2eed5c4ce488279f840b07a350c66cefc309def", "c1aacec1ce0733e050577ae8604a8ec60306c0535514779fa770b54e5c2e5fd2"},
	{"treiber", "impl", 2, 2, "e89bf2feda86d1c79d1ed9835cc67c33d65d6398745538813cd09facb259f784", "d04ca62488c8138505e63f11daf0ed5b4d5d6a468df3a77985a52bd200f57e5e"},
	{"treiber", "spec", 1, 2, "cf8c7c3a3693ff793f57e033b072d3ad441609bae946e4a2bc02ec9f43c3081e", "bdfb01cb2fb9e86023dd5a12037360cb373af39bf1bdd3fbe4004a8325458780"},
	{"treiber", "spec", 2, 2, "4eff46366842005e01a51756547eb49c6d0d3c3ba2e9552cf63f5ee5d172f62b", "79d7d68f7dd85a081d7374312132b3b1bbce11d9f0db2ad1f98796d1ef517b58"},
	{"treiber-hp", "impl", 1, 2, "eb04720abb65ced237a35d2b5dd3e35b55b6b024bfd1a9776195f7b3782b2139", "e2d1673779d426d55115bf1919c481840e79a72c7690789f4d4bcaa6ef063b6c"},
	{"treiber-hp", "impl", 2, 2, "ab284efc72b65316926b660d5ea760814f5fc23191010ed9c8bf148f132ff1a7", "5c6e71ec2a4207ffdad622649e86fb283aab2fd3d215f0a071a81f10b031ced0"},
	{"treiber-hp", "spec", 1, 2, "cf8c7c3a3693ff793f57e033b072d3ad441609bae946e4a2bc02ec9f43c3081e", "bdfb01cb2fb9e86023dd5a12037360cb373af39bf1bdd3fbe4004a8325458780"},
	{"treiber-hp", "spec", 2, 2, "4eff46366842005e01a51756547eb49c6d0d3c3ba2e9552cf63f5ee5d172f62b", "79d7d68f7dd85a081d7374312132b3b1bbce11d9f0db2ad1f98796d1ef517b58"},
	{"treiber-hp-fu", "impl", 1, 2, "eb04720abb65ced237a35d2b5dd3e35b55b6b024bfd1a9776195f7b3782b2139", "e2d1673779d426d55115bf1919c481840e79a72c7690789f4d4bcaa6ef063b6c"},
	{"treiber-hp-fu", "impl", 2, 2, "255f079e63770d0ea6a8c8e28547cd198c41ba95af9630fd3ca939175fb21818", "00efeea739410ea640d7253f5e9a1c754b9f59a19880bbd9c065d7257a301b7c"},
	{"treiber-hp-fu", "spec", 1, 2, "cf8c7c3a3693ff793f57e033b072d3ad441609bae946e4a2bc02ec9f43c3081e", "bdfb01cb2fb9e86023dd5a12037360cb373af39bf1bdd3fbe4004a8325458780"},
	{"treiber-hp-fu", "spec", 2, 2, "4eff46366842005e01a51756547eb49c6d0d3c3ba2e9552cf63f5ee5d172f62b", "79d7d68f7dd85a081d7374312132b3b1bbce11d9f0db2ad1f98796d1ef517b58"},
	{"ms-queue", "impl", 1, 2, "5c71411cb98f7926fc4884f0ff6a632578edd549d50de24da332798be34d317d", "a143e20352f950415819ef7b457cb365d4979ea6242004335fbee05cc2183b50"},
	{"ms-queue", "impl", 2, 2, "8d599095c7cad0cd77aa0e4a60703a11c30a03c8f04f4e84d73715a1c9992830", "cef1b2718bdc78ea401fc0daa042c7f82259ecfc51bde632c7e6215ccca1e5f3"},
	{"ms-queue", "spec", 1, 2, "6328f1abe1c356fc46a951b91f0dfde4623346400b3a25b4425e8fa8bb919428", "0430bfda6a3c614684dad33cddfe3321b7a4564a5008e953d29c4d7af8501cc4"},
	{"ms-queue", "spec", 2, 2, "bc160370d9d7d74e860f7eca638f01574b36d12bad7af79133d2b979493924ad", "2cac2fc0f899896835b9858ccfb50b4313d7faa3945fd37ef0c1bb1f935e7a1c"},
	{"ms-queue", "abstract", 1, 2, "67222ff17e4205a0cb0e96e048fe9cc29e5f249ecde544207570c30c81d644f6", "5fe0db568a7ddf8dc34762bb39ca66336576b136e4ef75e485e88b9bd3e1510c"},
	{"ms-queue", "abstract", 2, 2, "fdfb5345106b473bd431a8da34e377ec5559b5421a0bc13564e27115acd7f522", "560c9ea7dbbb0ddff9ca87dd69a8558c063d3f180d1fd7302edc4a51c0598095"},
	{"dglm-queue", "impl", 1, 2, "11a55dc5ee88898c50441ab7b134f4fdef7ee9132d738992eaaf396d44029a73", "7a147989086251e376f7e1589167d3e5e8c9e28db2b0f182f434ea732df782bb"},
	{"dglm-queue", "impl", 2, 2, "06a81b27ba5fd4bb6d8e9caab6adb633e0668c7b8e6caf19812ec0c1081bcac2", "800f5a7ebb3be00a18d54eea2da053e114507873f6c3696a5ffa141128424676"},
	{"dglm-queue", "spec", 1, 2, "6328f1abe1c356fc46a951b91f0dfde4623346400b3a25b4425e8fa8bb919428", "0430bfda6a3c614684dad33cddfe3321b7a4564a5008e953d29c4d7af8501cc4"},
	{"dglm-queue", "spec", 2, 2, "bc160370d9d7d74e860f7eca638f01574b36d12bad7af79133d2b979493924ad", "2cac2fc0f899896835b9858ccfb50b4313d7faa3945fd37ef0c1bb1f935e7a1c"},
	{"dglm-queue", "abstract", 1, 2, "67222ff17e4205a0cb0e96e048fe9cc29e5f249ecde544207570c30c81d644f6", "5fe0db568a7ddf8dc34762bb39ca66336576b136e4ef75e485e88b9bd3e1510c"},
	{"dglm-queue", "abstract", 2, 2, "fdfb5345106b473bd431a8da34e377ec5559b5421a0bc13564e27115acd7f522", "560c9ea7dbbb0ddff9ca87dd69a8558c063d3f180d1fd7302edc4a51c0598095"},
	{"ccas", "impl", 1, 2, "ab9f93b44821aecc52ce55221f89b03f64ec2548fd572b14b297f34cc2346f68", "278fe82757f3624c5a0325e8f1e9e75d18e9257facd1f5ae0abf32bc470acff8"},
	{"ccas", "impl", 2, 2, "e012210ce97d101c0921f88e17e96ed871c2ffdb09b9c0d3c8f8e9b02d2e48bd", "0f69bd27d002f792f5ad9c4a4f59e988271d5853eb360033c9854f39d460ab49"},
	{"ccas", "spec", 1, 2, "a857f2c3becd1e50149efded1f42cbf791dc80caf835547f4d4b7063fff426e3", "fa8ab7cea84475fd87a9f4d1705d93f25a5833a5b1e2dc3b20334376c5d4c887"},
	{"ccas", "spec", 2, 2, "d84da78724575549fa18eacdcd915a7860970ae4bb39be05806cbddf3ba5df39", "3158d49f9597d6ef5e0130a3234b1d8b15ae4a9ec737104c303620f45d2d0b08"},
	{"ccas", "abstract", 1, 2, "a6f66316089fc5c2434cfddcbbea25b9209ac6c9fd0fcfa6d3a3b48f3460392d", "002c2bf52440c0a8eb74a1d1a3f74d2699d78e4f0ce21f0ac97e61ae51d0a1db"},
	{"ccas", "abstract", 2, 2, "f35b4d7eeaefcc9bf20057889f7edef670733b9679cebc026a17cc4b0072923f", "92c754c2848a405a65dbf8c9eafbed6180d6b70112e7e4aa24304be0bd8b5330"},
	{"rdcss", "impl", 1, 2, "8c30812fb3bcc9dc39b38424904026deb9374e8c3c9d9bd7378e779390262f7a", "ecb1961fe3489796c5d833649c65718a6e80d78ae087ac7996b6df4c762e8da4"},
	{"rdcss", "impl", 2, 2, "f15efdd64c20d502aa7cffbc03ac1f407e9a2f80702ab1f2333c8f9df77fb432", "da07c4dcb45c3cf36af83f321b8e81f28a84c475c8046d4a9f735155d78d36d8"},
	{"rdcss", "spec", 1, 2, "0ed09122b8fb23151857b18645ade288a5de22da9cebd91ee267b8a706a438ba", "bd50d1c102603ff9a614734dfe332f39114cdd24f2164a1fc55e4b5176a33927"},
	{"rdcss", "spec", 2, 2, "bc629eb1e0d79cf5938995e290c468f48bc5ab69668b4f87a4b6044350a9dd3b", "a53ba1c1f172d71ac1130f2db3ae4ea65eedfec2480e01ff3444396b96bafa32"},
	{"rdcss", "abstract", 1, 2, "06a8b6c4663799569c5ffb048a3d640e5ef73be626f6e06233490330747c5332", "12277c44929d3128aaf5367b3c57c5a673260eacf4e549de5b2e7a301606fd42"},
	{"rdcss", "abstract", 2, 2, "e164a69f1eb81a6e1be39cd4332ce1531ef4d57b573fd9438b67aedfb247db5f", "ccf29901e0152f4981844a380b85f6da3f1b8f92b3a760c447b6d94f6027a3e7"},
	{"newcas", "impl", 1, 2, "f50bd4e5b59cf59ddb84519c5ae2e774a3187cf199d82bbe1ced9b2575aca3b1", "d8146dffc321501bf8327fcde7efb392636977c9dde9ba61234517860fc4a1a0"},
	{"newcas", "impl", 2, 2, "7cb674c1bb75d5c256046dfde7acce76a3cc24611c537a18922be40262102f4e", "0c469eeb8952b19cd9d1e7d2de5675df5428def058a5b1b06f50c337cff34b6a"},
	{"newcas", "spec", 1, 2, "73f0111ea801761d127771d57e594fd29a4171f0825a64651208f0abd35f4f10", "4890b6fb9cb4671a7f1d562862d1116b9ae5d1b7d7e6bf2aaac5e55054247271"},
	{"newcas", "spec", 2, 2, "273fd6fe936884debfa7aebd4db005fd1838b6f6750221794a60d63211654d0e", "bcf78a993d5dfa2a129d5a3d62f0989c0bcf9ef36288a95c2c8b7f24e9f6472c"},
	{"hm-list-buggy", "impl", 1, 2, "7338ec070c5493a22d897624a33da6c1c6d46e69f67a911049c460d1c5350f4b", "0fdadccf8a81b11c6fc6c9769ddfea09cec6f51fcbd41fd05157e2db259591dd"},
	{"hm-list-buggy", "impl", 2, 2, "7eb330a9beb95e90b13779d3ebbc54f58510b82fa6d848e617b06643f43de95a", "fb217525ab263beb4ff3fb9d3d64ab15037c9d0f93083030b7595a3bc52fafe8"},
	{"hm-list-buggy", "spec", 1, 2, "8b3f5b1c27333f014b156246fa2a972717b679a42cd721ef542168fafe221b94", "210c1cccb25990a98225ca109579555b4d891df57249a98737ffe438e85a7cdb"},
	{"hm-list-buggy", "spec", 2, 2, "a0e0c6afe938250fcd88bf9f4390a7c053e24413e887ace97c47896cf79062aa", "e17b41429517832f3eb35febff1bb33a563ea7f2ce2a957187d7091cc30218b9"},
	{"hm-list", "impl", 1, 2, "7338ec070c5493a22d897624a33da6c1c6d46e69f67a911049c460d1c5350f4b", "0fdadccf8a81b11c6fc6c9769ddfea09cec6f51fcbd41fd05157e2db259591dd"},
	{"hm-list", "impl", 2, 2, "7c8656f87eeab6adf63b9a34b9c45cc66f4563a57a841ddfbd3cf9e42b56f1d8", "2a7844cda77670fa0b8e580976b2b25d223958c52aad581d31b56a77ba201218"},
	{"hm-list", "spec", 1, 2, "8b3f5b1c27333f014b156246fa2a972717b679a42cd721ef542168fafe221b94", "210c1cccb25990a98225ca109579555b4d891df57249a98737ffe438e85a7cdb"},
	{"hm-list", "spec", 2, 2, "a0e0c6afe938250fcd88bf9f4390a7c053e24413e887ace97c47896cf79062aa", "e17b41429517832f3eb35febff1bb33a563ea7f2ce2a957187d7091cc30218b9"},
	{"hw-queue", "impl", 1, 2, "4c956469f89edf536989d298be63b6e90afb6efe632e197dd4c5cee923c380eb", "ccad222c3819398c80263885bf431341674576d923cd3fa41ee7a3e98ac60a4a"},
	{"hw-queue", "impl", 2, 2, "12d99a4035373695286b08a1dbebdd760ab829811b5d1f01cbd21524c2a53444", "09d67c917d6917fba959ac18861ce2aa53c955f8c83c0cbe1b77be682386368a"},
	{"hw-queue", "spec", 1, 2, "6328f1abe1c356fc46a951b91f0dfde4623346400b3a25b4425e8fa8bb919428", "0430bfda6a3c614684dad33cddfe3321b7a4564a5008e953d29c4d7af8501cc4"},
	{"hw-queue", "spec", 2, 2, "bc160370d9d7d74e860f7eca638f01574b36d12bad7af79133d2b979493924ad", "2cac2fc0f899896835b9858ccfb50b4313d7faa3945fd37ef0c1bb1f935e7a1c"},
	{"hsy-stack", "impl", 1, 2, "7b3e3fd83f9ef3a8066904cede78c0624b48f7786ba1dfea1c8f21214bce4c88", "c2463b5d1f6f8572cde7ba5c40e1cd18336e58a0fa35b1bee7fad6e71baf59a6"},
	{"hsy-stack", "impl", 2, 2, "3314c63b85195a03347401b520e8db129d68b79c8b38356f11821570bc696d4f", "22210960efbc8be99e7f3ef6826c5a647c5987108fb130a42ee9b4693a2a2851"},
	{"hsy-stack", "spec", 1, 2, "cf8c7c3a3693ff793f57e033b072d3ad441609bae946e4a2bc02ec9f43c3081e", "bdfb01cb2fb9e86023dd5a12037360cb373af39bf1bdd3fbe4004a8325458780"},
	{"hsy-stack", "spec", 2, 2, "4eff46366842005e01a51756547eb49c6d0d3c3ba2e9552cf63f5ee5d172f62b", "79d7d68f7dd85a081d7374312132b3b1bbce11d9f0db2ad1f98796d1ef517b58"},
	{"lazy-list", "impl", 1, 2, "22890e6d989ed93d67fcb6def7886ea0d6761805e5fea2c425145c21ad473121", "3c841010a057ad10f2f13e6bab67913cdef5659d33cf2c65fd4c4f40ecbc2535"},
	{"lazy-list", "impl", 2, 2, "ed7d4b9359f159ccfcaaa4353cddd8659e054d30bfa169c56a56c21b488ca212", "0e8d66bb0ccec993f03e1f2ed2878af83958461e1a45a25a26223ebdab1a20f9"},
	{"lazy-list", "spec", 1, 2, "38bc0c946709ac2f54a411134bf879e3bd4662e177bc2f040feab314cfbe883a", "1d79b3a47310ce789da8d0e94a7e7d449eae8713ecc9bb9089140c23094dd59f"},
	{"lazy-list", "spec", 2, 2, "960bc075f6a637ef04bc54e3de1732cdf0fbef59866fa83a39539d93fd32c030", "10c4523127feb941b77594063376d0977c074bed450780ee6498e28ffbe940d0"},
	{"optimistic-list", "impl", 1, 2, "89bd8aa4a10227e99408f4a34ad0666741c148744de34d7fc5336e58ab0bf5d6", "c538d5c88f2059b61944a5e1d8121a7703834618f5c5dece488406c461a5e966"},
	{"optimistic-list", "impl", 2, 2, "d81a107b1bf4817b4892284003bb20c4ad3b21f7be2a192151fbc649996727bc", "be2dccb0946197ea37f559afe4356b0f9c58bc767b95b85b06e83ba24028baf7"},
	{"optimistic-list", "spec", 1, 2, "38bc0c946709ac2f54a411134bf879e3bd4662e177bc2f040feab314cfbe883a", "1d79b3a47310ce789da8d0e94a7e7d449eae8713ecc9bb9089140c23094dd59f"},
	{"optimistic-list", "spec", 2, 2, "960bc075f6a637ef04bc54e3de1732cdf0fbef59866fa83a39539d93fd32c030", "10c4523127feb941b77594063376d0977c074bed450780ee6498e28ffbe940d0"},
	{"fine-grained-list", "impl", 1, 2, "fb0f27281338101fd9685a8eded2caffe20cece2dd550659a847e9b535f4faa0", "9eb56d5055e71852772f745666c5114cd804a58e2e4154d14e6cbc8c17ef50ee"},
	{"fine-grained-list", "impl", 2, 2, "a331408b09a0d2b8cd0fe2c3c0b140ce603c2109d9bc78904ddc0bf5013770f9", "d61883a7d8c7877e8c6fd03b6bc941388be55bc2425a260a775b7fb8e8d148fd"},
	{"fine-grained-list", "spec", 1, 2, "38bc0c946709ac2f54a411134bf879e3bd4662e177bc2f040feab314cfbe883a", "1d79b3a47310ce789da8d0e94a7e7d449eae8713ecc9bb9089140c23094dd59f"},
	{"fine-grained-list", "spec", 2, 2, "960bc075f6a637ef04bc54e3de1732cdf0fbef59866fa83a39539d93fd32c030", "10c4523127feb941b77594063376d0977c074bed450780ee6498e28ffbe940d0"},
	{"treiber-unsafe-free", "impl", 1, 2, "24468037da617c28f40c8b10a2eed5c4ce488279f840b07a350c66cefc309def", "e5b4427341a17931cdc40783e622b5e4c4fcf15fae227e49f934ae13942ccf62"},
	{"treiber-unsafe-free", "impl", 2, 2, "897aef9686f3118023cecb2d91e140f27bf145839ef96ae420634482052a90cf", "b08787d1b7cb28f5cd3ad06d5db8c51a28fc55a2892d709a21b24907f7499559"},
	{"treiber-unsafe-free", "spec", 1, 2, "cf8c7c3a3693ff793f57e033b072d3ad441609bae946e4a2bc02ec9f43c3081e", "bdfb01cb2fb9e86023dd5a12037360cb373af39bf1bdd3fbe4004a8325458780"},
	{"treiber-unsafe-free", "spec", 2, 2, "4eff46366842005e01a51756547eb49c6d0d3c3ba2e9552cf63f5ee5d172f62b", "79d7d68f7dd85a081d7374312132b3b1bbce11d9f0db2ad1f98796d1ef517b58"},
	{"spinlock-stack", "impl", 1, 2, "01fab41d29ddfeeb79a0b9dae83109f29e92519362d7e9d3449e3ae72af9b846", "c23fff9c6dfef3fb393b80d4e67e2fea2b9f751d39ee5bcee1ee86f9da4b25cd"},
	{"spinlock-stack", "impl", 2, 2, "edd203a9c3fae7a09a62f1cd00d9ea9f4a8c1496fdd25039255c6f7e88afc75d", "ac25bacdbab8533cead360f93b540dbbf6fbca1daee8a867bec098451b12f070"},
	{"spinlock-stack", "spec", 1, 2, "cf8c7c3a3693ff793f57e033b072d3ad441609bae946e4a2bc02ec9f43c3081e", "bdfb01cb2fb9e86023dd5a12037360cb373af39bf1bdd3fbe4004a8325458780"},
	{"spinlock-stack", "spec", 2, 2, "4eff46366842005e01a51756547eb49c6d0d3c3ba2e9552cf63f5ee5d172f62b", "79d7d68f7dd85a081d7374312132b3b1bbce11d9f0db2ad1f98796d1ef517b58"},
	{"two-lock-queue", "impl", 1, 2, "1c62e74489d54dd8b785ed1934e75e3a1fb525b5a36cd071dab605ab62d20a58", "64176de263ae9daa8e694fa11cdf99dd21b395ebd498528cfc7a5f25a23f3a1b"},
	{"two-lock-queue", "impl", 2, 2, "b27e5e3a8f391883ad799cd7fadb2b5b85d6831c91a81640e8417a033203c53f", "eb994a2d75784ef2d6ebe45bb268db764f806d68760f1fceb9733a014a10f46e"},
	{"two-lock-queue", "spec", 1, 2, "6328f1abe1c356fc46a951b91f0dfde4623346400b3a25b4425e8fa8bb919428", "0430bfda6a3c614684dad33cddfe3321b7a4564a5008e953d29c4d7af8501cc4"},
	{"two-lock-queue", "spec", 2, 2, "bc160370d9d7d74e860f7eca638f01574b36d12bad7af79133d2b979493924ad", "2cac2fc0f899896835b9858ccfb50b4313d7faa3945fd37ef0c1bb1f935e7a1c"},
	{"coarse-list", "impl", 1, 2, "12fee4592b1a3d5d706748c6439ba46610451dfec5cc791b78433972ebbc9c24", "8f2b3a0e93f8b2ba26ab40c9463b64d6a9599d74ff96c292fd9dbe1cbad774e6"},
	{"coarse-list", "impl", 2, 2, "4bb5eb7d525a4766d5fbdc002f7b793f81ec283e206760db16f8374054e1a019", "4de56a18af626111c75ac5e5803d6c3ad45bdf6159ec83808491b4210b9b5c60"},
	{"coarse-list", "spec", 1, 2, "38bc0c946709ac2f54a411134bf879e3bd4662e177bc2f040feab314cfbe883a", "1d79b3a47310ce789da8d0e94a7e7d449eae8713ecc9bb9089140c23094dd59f"},
	{"coarse-list", "spec", 2, 2, "960bc075f6a637ef04bc54e3de1732cdf0fbef59866fa83a39539d93fd32c030", "10c4523127feb941b77594063376d0977c074bed450780ee6498e28ffbe940d0"},
	{"harris-list", "impl", 1, 2, "35b5210b05bf8b33c24e30880b363b34d3a7c2d303f3a7fb0d2720ef181fe5f5", "ae2c5b944421e12f6edfdb82f0c75fcc9a5d889f90c8b0e6053cacc1aa8c5fb3"},
	{"harris-list", "impl", 2, 2, "adf84f166c30c3256d8b5d7cb53f23512238a7e4eccc0026e3dab74a122eabae", "4421fd5ac21a2fe6debeb6831cf542fee339e1aed8e2323169f2321a22c252a6"},
	{"harris-list", "spec", 1, 2, "8b3f5b1c27333f014b156246fa2a972717b679a42cd721ef542168fafe221b94", "210c1cccb25990a98225ca109579555b4d891df57249a98737ffe438e85a7cdb"},
	{"harris-list", "spec", 2, 2, "a0e0c6afe938250fcd88bf9f4390a7c053e24413e887ace97c47896cf79062aa", "e17b41429517832f3eb35febff1bb33a563ea7f2ce2a957187d7091cc30218b9"},
	{"treiber-versioned", "impl", 1, 2, "ab2f9f36c8cf3324345dc4cea62df0a20b4cdeafb787db53f959a2bcb227c374", "1c35ec16f6d3e8ad73edc37c2e5ccdee30de662ea36c8bb6dba875db8f578a83"},
	{"treiber-versioned", "impl", 2, 2, "5a5051359de55ae706fea09e317c31364f78dbefcc248a9b87b808fb44c3e252", "6ca50c72db31ad29b521626cc2be3500caa51bd51a39d6650290d750ffef766c"},
	{"treiber-versioned", "spec", 1, 2, "cf8c7c3a3693ff793f57e033b072d3ad441609bae946e4a2bc02ec9f43c3081e", "bdfb01cb2fb9e86023dd5a12037360cb373af39bf1bdd3fbe4004a8325458780"},
	{"treiber-versioned", "spec", 2, 2, "4eff46366842005e01a51756547eb49c6d0d3c3ba2e9552cf63f5ee5d172f62b", "79d7d68f7dd85a081d7374312132b3b1bbce11d9f0db2ad1f98796d1ef517b58"},
}

// exportDigests explores p with one worker and no layout and hashes its
// AUT and DOT exports.
func exportDigests(t *testing.T, p *machine.Program, threads, ops int) (aut, dot string) {
	t.Helper()
	l, _, err := machine.ExploreWithInfoContext(context.Background(), p, machine.Options{Threads: threads, Ops: ops, Workers: 1})
	if err != nil {
		t.Fatalf("explore %s: %v", p.Name, err)
	}
	var a, d bytes.Buffer
	if err := lts.WriteAUT(&a, l); err != nil {
		t.Fatalf("write aut: %v", err)
	}
	if err := lts.WriteDOT(&d, l, "x"); err != nil {
		t.Fatalf("write dot: %v", err)
	}
	sa, sd := sha256.Sum256(a.Bytes()), sha256.Sum256(d.Bytes())
	return hex.EncodeToString(sa[:]), hex.EncodeToString(sd[:])
}

// TestRegistryLTSDigests holds every registry program — implementation,
// specification and abstract program where one exists — to its pinned
// AUT and DOT digests at 1×2 and 2×2. A row missing from the table is
// reported in table syntax, so regenerating the table means emptying
// it and copying the failure output.
func TestRegistryLTSDigests(t *testing.T) {
	t.Cleanup(machine.EnableKeyOracle())
	want := make(map[string]ltsDigest, len(registryDigests))
	for _, d := range registryDigests {
		want[fmt.Sprintf("%s/%s/%dx%d", d.id, d.prog, d.threads, d.ops)] = d
	}
	var missing strings.Builder
	for _, a := range All() {
		progs := []struct {
			name  string
			build func(Config) *machine.Program
		}{{"impl", a.Build}, {"spec", a.Spec}, {"abstract", a.Abstract}}
		for _, pr := range progs {
			if pr.build == nil {
				continue
			}
			for _, cfg := range []Config{{Threads: 1, Ops: 2}, {Threads: 2, Ops: 2}} {
				key := fmt.Sprintf("%s/%s/%dx%d", a.ID, pr.name, cfg.Threads, cfg.Ops)
				aut, dot := exportDigests(t, pr.build(cfg), cfg.Threads, cfg.Ops)
				w, ok := want[key]
				if !ok {
					fmt.Fprintf(&missing, "\t{%q, %q, %d, %d, %q, %q},\n", a.ID, pr.name, cfg.Threads, cfg.Ops, aut, dot)
					continue
				}
				delete(want, key)
				if aut != w.aut {
					t.Errorf("%s: AUT digest %s, want %s", key, aut, w.aut)
				}
				if dot != w.dot {
					t.Errorf("%s: DOT digest (τ labels) %s, want %s", key, dot, w.dot)
				}
			}
		}
	}
	if missing.Len() > 0 {
		t.Errorf("programs with no pinned digest:\n%s", missing.String())
	}
	for key := range want {
		t.Errorf("%s: pinned digest matches no registry program", key)
	}
}
