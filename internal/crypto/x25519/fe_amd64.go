// Copyright (c) 2019 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// fe_amd64.s is the Go 1.24 standard library's Avo-generated
// crypto/internal/fips140/edwards25519/field/fe_amd64.s, verbatim but for
// its purego build constraint: on amd64 it is the only multiply and square.

package x25519

// feMul sets out = a * b. It works like feMulGeneric.
//
//go:noescape
func feMul(out *fieldElement, a *fieldElement, b *fieldElement)

// feSquare sets out = a * a. It works like feSquareGeneric.
//
//go:noescape
func feSquare(out *fieldElement, a *fieldElement)
