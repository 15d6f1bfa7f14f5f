//go:build !linux

package mem

import "unsafe"

// adviseHuge is a no-op where no transparent huge page advice exists.
func adviseHuge(unsafe.Pointer, uintptr) {}
