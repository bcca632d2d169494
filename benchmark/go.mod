module bneck/benchmark

go 1.24

require bneck v0.0.0

replace bneck => ../
