package codegen

// Lower is Compile without tidy: the pass's input, which tidy_test.go runs
// as the pass's reference.
var Lower = lower
