module vuvuzela/bench

go 1.24

require vuvuzela v0.0.0

replace vuvuzela => ../
