package lexrt

// RefLex exposes the reference lexer (ref_test.go) to the external
// differential tests.
var RefLex = refLex
