module streamdb/cmd/bench

go 1.22

require streamdb v0.0.0

replace streamdb => ../..
