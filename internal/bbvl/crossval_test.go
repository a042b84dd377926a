package bbvl

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/lts"
	"repro/internal/machine"
)

// handCodedDigest is the SHA-256 of the AUT export (structure and action
// alphabet) and of the DOT export (which adds the τ diagnostic labels) of
// one program of the hand-coded registry encoding that a shipped model
// replaced, at one instance size. The same figures are pinned for the
// registry rows in internal/algorithms.
type handCodedDigest struct {
	threads, ops int
	aut, dot     string
}

// crossValidate holds a model's compiled program to an LTS byte-identical
// with the hand-coded encoding it replaced, at 1×2 and 2×2.
func crossValidate(t *testing.T, name string, build func(Config) *machine.Program, want []handCodedDigest) {
	t.Helper()
	for _, w := range want {
		p := build(Config{Threads: w.threads, Ops: w.ops})
		l, _, err := machine.ExploreWithInfoContext(context.Background(), p, machine.Options{Threads: w.threads, Ops: w.ops, Workers: 1})
		if err != nil {
			t.Fatalf("explore %s: %v", name, err)
		}
		var aut, dot bytes.Buffer
		if err := lts.WriteAUT(&aut, l); err != nil {
			t.Fatalf("write aut: %v", err)
		}
		if err := lts.WriteDOT(&dot, l, "x"); err != nil {
			t.Fatalf("write dot: %v", err)
		}
		sa, sd := sha256.Sum256(aut.Bytes()), sha256.Sum256(dot.Bytes())
		if got := hex.EncodeToString(sa[:]); got != w.aut {
			t.Errorf("%s %d.%d: AUT digest %s differs from hand-coded encoding %s", name, w.threads, w.ops, got, w.aut)
		}
		if got := hex.EncodeToString(sd[:]); got != w.dot {
			t.Errorf("%s %d.%d: DOT (τ labels) digest %s differs from hand-coded encoding %s", name, w.threads, w.ops, got, w.dot)
		}
	}
}

// stackSpecDigests pins the hand-coded stack specification.
var stackSpecDigests = []handCodedDigest{
	{1, 2, "cf8c7c3a3693ff793f57e033b072d3ad441609bae946e4a2bc02ec9f43c3081e", "bdfb01cb2fb9e86023dd5a12037360cb373af39bf1bdd3fbe4004a8325458780"},
	{2, 2, "4eff46366842005e01a51756547eb49c6d0d3c3ba2e9552cf63f5ee5d172f62b", "79d7d68f7dd85a081d7374312132b3b1bbce11d9f0db2ad1f98796d1ef517b58"},
}

// TestTreiberByteIdentical cross-validates the BBVL encoding of the
// Treiber stack against the hand-coded implementation and specification.
func TestTreiberByteIdentical(t *testing.T) {
	m := loadExample(t, "treiber.bbvl")
	crossValidate(t, "treiber", m.Build, []handCodedDigest{
		{1, 2, "24468037da617c28f40c8b10a2eed5c4ce488279f840b07a350c66cefc309def", "c1aacec1ce0733e050577ae8604a8ec60306c0535514779fa770b54e5c2e5fd2"},
		{2, 2, "e89bf2feda86d1c79d1ed9835cc67c33d65d6398745538813cd09facb259f784", "d04ca62488c8138505e63f11daf0ed5b4d5d6a468df3a77985a52bd200f57e5e"},
	})
	crossValidate(t, "treiber spec", m.SpecProgram, stackSpecDigests)
}

// TestMSQueueByteIdentical cross-validates the MS queue model, its spec
// selection and its abstract (Theorem 5.8) program.
func TestMSQueueByteIdentical(t *testing.T) {
	m := loadExample(t, "msqueue.bbvl")
	crossValidate(t, "ms-queue", m.Build, []handCodedDigest{
		{1, 2, "5c71411cb98f7926fc4884f0ff6a632578edd549d50de24da332798be34d317d", "a143e20352f950415819ef7b457cb365d4979ea6242004335fbee05cc2183b50"},
		{2, 2, "8d599095c7cad0cd77aa0e4a60703a11c30a03c8f04f4e84d73715a1c9992830", "cef1b2718bdc78ea401fc0daa042c7f82259ecfc51bde632c7e6215ccca1e5f3"},
	})
	crossValidate(t, "ms-queue spec", m.SpecProgram, []handCodedDigest{
		{1, 2, "6328f1abe1c356fc46a951b91f0dfde4623346400b3a25b4425e8fa8bb919428", "0430bfda6a3c614684dad33cddfe3321b7a4564a5008e953d29c4d7af8501cc4"},
		{2, 2, "bc160370d9d7d74e860f7eca638f01574b36d12bad7af79133d2b979493924ad", "2cac2fc0f899896835b9858ccfb50b4313d7faa3945fd37ef0c1bb1f935e7a1c"},
	})
	if !m.HasAbstract {
		t.Fatal("msqueue.bbvl should declare an abstract program")
	}
	crossValidate(t, "ms-queue abstract", m.AbstractProgram, []handCodedDigest{
		{1, 2, "67222ff17e4205a0cb0e96e048fe9cc29e5f249ecde544207570c30c81d644f6", "5fe0db568a7ddf8dc34762bb39ca66336576b136e4ef75e485e88b9bd3e1510c"},
		{2, 2, "fdfb5345106b473bd431a8da34e377ec5559b5421a0bc13564e27115acd7f522", "560c9ea7dbbb0ddff9ca87dd69a8558c063d3f180d1fd7302edc4a51c0598095"},
	})
}

// TestSpinLockStackByteIdentical cross-validates the lock-based example
// against the hand-coded spinlock-stack extension.
func TestSpinLockStackByteIdentical(t *testing.T) {
	m := loadExample(t, "spinlock-stack.bbvl")
	if !m.LockBased {
		t.Fatal("spinlock-stack.bbvl should declare lockbased")
	}
	crossValidate(t, "spinlock-stack", m.Build, []handCodedDigest{
		{1, 2, "01fab41d29ddfeeb79a0b9dae83109f29e92519362d7e9d3449e3ae72af9b846", "c23fff9c6dfef3fb393b80d4e67e2fea2b9f751d39ee5bcee1ee86f9da4b25cd"},
		{2, 2, "edd203a9c3fae7a09a62f1cd00d9ea9f4a8c1496fdd25039255c6f7e88afc75d", "ac25bacdbab8533cead360f93b540dbbf6fbca1daee8a867bec098451b12f070"},
	})
	crossValidate(t, "spinlock-stack spec", m.SpecProgram, stackSpecDigests)
}
