module resinfer/benchmark

go 1.22

require resinfer v0.0.0

replace resinfer => ../
