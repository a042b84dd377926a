// Package badcore is an archtest fixture: a would-be core package that
// breaks the layering in every way the checker must catch. It is never
// built (testdata is invisible to the go tool).
package badcore

import (
	"fmt"
	"net/http"
	"os"
	"os/exec"

	"repro/internal/statestore"
)

func bad() {
	fmt.Println(os.Args, exec.Command("true"), http.DefaultClient, statestore.Runtime())
}
