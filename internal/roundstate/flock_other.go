//go:build !unix

package roundstate

import "os"

// lockFile is a no-op where flock is unavailable: the slot file's
// torn-write safety still holds, but two live processes sharing one
// state file are not detected on these platforms (deployment targets
// are unix).
func lockFile(*os.File) error { return nil }
