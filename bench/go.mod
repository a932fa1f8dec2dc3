// The benchmark is a module of its own so that it builds without a
// change to the repository's build files; it reaches the system under
// test through the replace below.
module fairgossip/bench

go 1.24

require fairgossip v0.0.0

replace fairgossip => ../
