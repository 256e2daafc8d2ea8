module github.com/richnote/richnote/benchmark

go 1.22

require github.com/richnote/richnote v0.0.0

replace github.com/richnote/richnote => ../
