module rair/bench

go 1.22

require rair v0.0.0

replace rair => ../
