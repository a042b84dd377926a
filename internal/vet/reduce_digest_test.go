package vet_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	bbvlexamples "repro/examples/bbvl"
	"repro/internal/algorithms"
	"repro/internal/vet"
)

// artifactDigest pins the SHA-256 of json.Marshal(vet.Reduce(...)) for
// one example model at one instance size.
type artifactDigest struct {
	model        string
	threads, ops int
	sha          string
}

// reductionArtifactDigests was generated before Reduce folded its lock-
// region validators and its τ-cycle probe into one pilot walk. The
// explorer's pruning is a pure function of the artifact, so equal
// artifacts also mean byte-identical reduced LTSs.
var reductionArtifactDigests = []artifactDigest{
	{"coarse-list", 2, 2, "9e519e0379876a46895c3e04507d58582fe645fb470c7f356150afcc1409c847"},
	{"coarse-list", 2, 3, "33507b6200449c34a27841f62747a717c0bfbba873007790b84cdfa7b2569136"},
	{"coarse-list", 3, 2, "0e1276bfb8b759246fbc1d883cd8589fda50b35f1b718408b20d06a964ff472a"},
	{"dglm-queue", 2, 2, "1437558ba6cbf4dcd6b41b2deb7231a32154ca11e75a88379a39a774ca38973b"},
	{"dglm-queue", 2, 3, "9232f49c13ea8347d8a9679a831715d20b6e9e3e6b95561d931796dba07ae336"},
	{"dglm-queue", 3, 2, "74eed748ed04a234436122c08ce3d65ca57705df893a587ef7353be2e72d6a5b"},
	{"fine-grained-list", 2, 2, "b4604c03f2436ab42693024d3a6cb0988fa7aa7cab81f53c76d17569cb954cc5"},
	{"fine-grained-list", 2, 3, "9d28471a9829232adfad8cf092f70dec4bf2c3c47f76eb8a090bfe4fc8dfd1af"},
	{"fine-grained-list", 3, 2, "08660debe02cdbd2da41181a897d7617dd10441d40e573d3d4fa5827a530b5ab"},
	{"lazy-list", 2, 2, "2ddf7adb8a532255cf89ce90eccbbb277d22f6316befcf4bedc4a7d65b3f8211"},
	{"lazy-list", 2, 3, "5708f3f4b4eced10966a347ee37c93be9ef1ac105488b6b02d13e0aca923908b"},
	{"lazy-list", 3, 2, "bf1b7d25cacc0a35c5b91d1d87a0009df16dec53f9d50bce11f4bf7ebc22a885"},
	{"msqueue", 2, 2, "a0abe31e09bd4e3e31de9f0a0eefd909884c5724c657eba3aa503e607eaedf87"},
	{"msqueue", 2, 3, "0adce8b6d9d2b67db3861ab536d31506a76256d36f03ced51f1b0800e1117e9a"},
	{"msqueue", 3, 2, "87d1160d016308349e79c868f0ae9c539eba10b08803380dd1ad226ed3e32717"},
	{"optimistic-list", 2, 2, "6abcde78c15a44f69e8fae0d28447455bf3c1153d82a5aa1083ac48e348432fb"},
	{"optimistic-list", 2, 3, "88aaabe6793512419f2ffed212a7a26725b62e4214284267c82ae2e1592dd598"},
	{"optimistic-list", 3, 2, "610eef4b14603bce2b7df1134fb38ef92e09566c49d90c876c03d14282045e94"},
	{"spinlock-queue", 2, 2, "ff113cb2757b8f1097d0d0753298a7e494ecd9f5ec7df47ab44ddf1d875dc1b2"},
	{"spinlock-queue", 2, 3, "5647a4d35c5332775b0302f243b5da77d88dc9c69094c3fbed84b70755d1206f"},
	{"spinlock-queue", 3, 2, "cc76c9ec9ab23afc012382022fdf4d0135f6ac538276770c97ae39be557bc3e2"},
	{"spinlock-stack", 2, 2, "9468cd39187fa7daaac25f823cd1337d7a7e93099e0b95745daa6455885bb326"},
	{"spinlock-stack", 2, 3, "360a8ba0ace5cd807ab72cafbe2b4131e06d0cc2c3524507fe752110122ce441"},
	{"spinlock-stack", 3, 2, "dc1008c3a20ab605b394d24579d674638abe6fd094162bad5bf7bc2a924d73f3"},
	{"treiber", 2, 2, "e6a6ac9e0bec4d5f4ee97a4c48b3b387c89f4927ff78ec3f6382a34ba39b69be"},
	{"treiber", 2, 3, "6fed25d5158e6f122d8d1d2cbd415754aa33d1dd32f34d1e5364ab55e7afce9c"},
	{"treiber", 3, 2, "ecd78370a2a81c4ca454995a245384d96b95309aaf3c34761bc0cb1c792ccc30"},
	{"two-lock-queue", 2, 2, "2ba3886c98afdf1a7e4170fe0fe5bc140aaf403b6f90bc872af5cc6007320d77"},
	{"two-lock-queue", 2, 3, "4e5e621386aacd076cf44d77463115607fea1e0ce34434928e60995e6bcd2649"},
	{"two-lock-queue", 3, 2, "7c732ee5ee948764f516bc075d16993b25405a9735de6126eb448b175a853154"},
}

// TestReduceArtifactDigests holds the reduction artifact of every
// example model at 2×2, 2×3 and 3×2 to its pinned digest. A row missing
// from the table is reported in table syntax, so regenerating the table
// means emptying it and copying the failure output.
func TestReduceArtifactDigests(t *testing.T) {
	want := make(map[string]artifactDigest, len(reductionArtifactDigests))
	for _, d := range reductionArtifactDigests {
		want[fmt.Sprintf("%s/%dx%d", d.model, d.threads, d.ops)] = d
	}
	var missing strings.Builder
	for _, name := range bbvlexamples.Names() {
		m := loadExample(t, name)
		for _, cfg := range []algorithms.Config{{Threads: 2, Ops: 2}, {Threads: 2, Ops: 3}, {Threads: 3, Ops: 2}} {
			key := fmt.Sprintf("%s/%dx%d", name, cfg.Threads, cfg.Ops)
			art := vet.Reduce(m.Build(cfg), vet.Options{Threads: cfg.Threads, Ops: cfg.Ops})
			js, err := json.Marshal(art)
			if err != nil {
				t.Fatalf("%s: marshal: %v", key, err)
			}
			sum := sha256.Sum256(js)
			got := hex.EncodeToString(sum[:])
			w, ok := want[key]
			if !ok {
				fmt.Fprintf(&missing, "\t{%q, %d, %d, %q},\n", name, cfg.Threads, cfg.Ops, got)
				continue
			}
			delete(want, key)
			if got != w.sha {
				t.Errorf("%s: artifact digest %s, want %s\n%s", key, got, w.sha, art.Format())
			}
		}
	}
	if missing.Len() > 0 {
		t.Errorf("models with no pinned digest:\n%s", missing.String())
	}
	for key := range want {
		t.Errorf("%s: pinned digest matches no example model", key)
	}
}
